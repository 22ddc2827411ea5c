package mcmpart

// WriteServiceError lets the external test package send a sentinel through
// the handler's own error mapping (client_errors_test.go).
var WriteServiceError = writeServiceError
