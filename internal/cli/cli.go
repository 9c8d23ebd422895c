// Package cli fixes one exit-code convention for every repro binary:
//
//	exit 2 — usage error: bad flags or arguments; the invocation itself
//	         is wrong, rerunning it unchanged cannot succeed.
//	exit 1 — runtime failure: the invocation was well-formed but the
//	         work failed (simulation error, gate regression, I/O).
//	exit 0 — success.
//
// Both paths print one "tool: message" line to stderr, keeping stdout
// clean for machine-readable output (-json and friends).
package cli

import (
	"bytes"
	"fmt"
	"io"
	"os"
)

// Exit codes.
const (
	ExitFailure = 1
	ExitUsage   = 2
)

// Stderr and Exit are seams for tests; production code never touches
// them.
var (
	Stderr io.Writer = os.Stderr
	Exit             = os.Exit
)

// Usagef reports a command-line usage error and exits 2.
func Usagef(tool, format string, args ...any) {
	fmt.Fprintf(Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	Exit(ExitUsage)
}

// Failf reports a runtime failure and exits 1.
func Failf(tool, format string, args ...any) {
	fmt.Fprintf(Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	Exit(ExitFailure)
}

// CheckUsage exits 2 with the error when err is non-nil.
func CheckUsage(tool string, err error) {
	if err != nil {
		Usagef(tool, "%v", err)
	}
}

// Check exits 1 with the error when err is non-nil.
func Check(tool string, err error) {
	if err != nil {
		Failf(tool, "%v", err)
	}
}

// exitPanic carries an exit code out of a trapped call.
type exitPanic int

// Trap runs f in-process with Exit diverted: a Usagef, Failf or Check
// inside f stops f, and Trap returns its exit code and message. A
// normal return yields code 0. Command tests use it to run a main body
// without ending the test binary; it is not safe for concurrent use.
func Trap(f func()) (code int, msg string) {
	var buf bytes.Buffer
	oldErr, oldExit := Stderr, Exit
	Stderr, Exit = &buf, func(c int) { panic(exitPanic(c)) }
	defer func() {
		Stderr, Exit = oldErr, oldExit
		if r := recover(); r != nil {
			c, ok := r.(exitPanic)
			if !ok {
				panic(r)
			}
			code, msg = int(c), buf.String()
		}
	}()
	f()
	return 0, buf.String()
}
