package mcmpart

// What the external test package reads of the package's internals.
var (
	// WriteServiceError sends an error through the handler's own mapping.
	WriteServiceError = writeServiceError
	// StatusTable is the sentinel↔status table the tests iterate, so that
	// they hold no second list of sentinels (client_errors_test.go).
	StatusTable = statusTable
)

// RetiredJobBytes is the retired jobs' bound, and JobBytes what they count
// for one (TestMaxRetainedJobs).
const RetiredJobBytes = retiredJobBytes

func JobBytes(j *Job) int64 { return j.bytes() }
