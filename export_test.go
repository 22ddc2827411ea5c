package mcmpart

// What the external test package reads of the package's internals.
var (
	// WriteServiceError sends an error through the handler's own mapping.
	WriteServiceError = writeServiceError
	// StatusTable is the sentinel↔status table the tests iterate, so that
	// they hold no second list of sentinels (client_errors_test.go).
	StatusTable = statusTable
	// ResultBits renders every field of a result, floats by their bits.
	ResultBits = resultBits
)

// RaceEnabled reports a -race build, whose sync.Pool drops a share of what
// is put back, so allocation counts are not the program's alone.
const RaceEnabled = raceEnabled

// RetiredJobBytes is the retired jobs' bound, and JobBytes what they count
// for one (TestMaxRetainedJobs).
const RetiredJobBytes = retiredJobBytes

func JobBytes(j *Job) int64 { return j.bytes() }
