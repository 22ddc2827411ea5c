// Package fixture seeds directive misuse for the framework's own checks:
// every malformed escape is itself a diagnostic, and a malformed ignore
// does not suppress the finding it sat next to.
//
//mcmlint:deterministic
package fixture

import "time"

// want "has no reason"
//
//mcmlint:ignore det
func stamped() time.Time { return time.Now() } // want "time.Now"

// want "unknown analyzer"
//
//mcmlint:ignore nosuchanalyzer because reasons
func alsoStamped() time.Time { return time.Now() } // want "time.Now"

// want "unknown //mcmlint:frobnicate"
//
//mcmlint:frobnicate
func frob() {}

// want "takes no arguments"
//
//mcmlint:deterministic extra prose
func marked() {}

//mcmlint:ignore det fixture: the escape path — wall-clock allowed here
func suppressed() time.Time { return time.Now() }
