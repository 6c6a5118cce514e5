package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestJobsFlagRejected: GOMAXPROCS is the only worker count, so the
// removed -j flag fails flag parsing. The test binary re-executes
// itself to run main, which exits on a parse error.
func TestJobsFlagRejected(t *testing.T) {
	if os.Getenv("LPP_TEST_MAIN") == "1" {
		os.Args = []string{"lpp", "-j", "2", "-list"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestJobsFlagRejected$")
	cmd.Env = append(os.Environ(), "LPP_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil || !strings.Contains(string(out), "flag provided but not defined: -j") {
		t.Errorf("lpp -j 2: err = %v, output:\n%s", err, out)
	}
}
