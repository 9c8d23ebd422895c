package cli

import (
	"errors"
	"testing"
)

func TestUsagefExitsTwo(t *testing.T) {
	code, out := Trap(func() { Usagef("tool", "bad flag %q", "-x") })
	if code != ExitUsage {
		t.Fatalf("exit = %d, want %d", code, ExitUsage)
	}
	if want := "tool: bad flag \"-x\"\n"; out != want {
		t.Fatalf("stderr = %q, want %q", out, want)
	}
}

func TestFailfExitsOne(t *testing.T) {
	code, out := Trap(func() { Failf("tool", "boom") })
	if code != ExitFailure {
		t.Fatalf("exit = %d, want %d", code, ExitFailure)
	}
	if want := "tool: boom\n"; out != want {
		t.Fatalf("stderr = %q, want %q", out, want)
	}
}

func TestChecksPassThroughNil(t *testing.T) {
	code, out := Trap(func() {
		Check("tool", nil)
		CheckUsage("tool", nil)
	})
	if out != "" || code != 0 {
		t.Fatalf("nil error must be a no-op, got (%q, %d)", out, code)
	}
	code, _ = Trap(func() { CheckUsage("tool", errors.New("e")) })
	if code != ExitUsage {
		t.Fatalf("CheckUsage exit = %d, want %d", code, ExitUsage)
	}
	code, _ = Trap(func() { Check("tool", errors.New("e")) })
	if code != ExitFailure {
		t.Fatalf("Check exit = %d, want %d", code, ExitFailure)
	}
}

// Trap stops the trapped call at the first exit, as the real process
// would, and restores the seams afterwards.
func TestTrapStopsAtExit(t *testing.T) {
	// Compare with the seams as they were, not with os.Stderr: go test
	// -json swaps os.Stderr after package init.
	oldErr := Stderr
	reached := false
	if code, _ := Trap(func() {
		Usagef("tool", "bad")
		reached = true
	}); code != ExitUsage || reached {
		t.Fatalf("exit %d, reached=%v; want %d, stopped at the exit", code, reached, ExitUsage)
	}
	if Stderr != oldErr {
		t.Fatal("Stderr seam not restored")
	}
}
