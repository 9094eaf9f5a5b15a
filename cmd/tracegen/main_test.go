package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func tracegen(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("tracegen %v: %v\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

// -samples N prints the header line and the first N samples of the full trace.
func TestSamplesIsPrefixOfFullTrace(t *testing.T) {
	for _, source := range []string{"RFHome", "Thermal"} {
		full := strings.SplitAfter(tracegen(t, "-source", source, "-seed", "3"), "\n")
		for _, n := range []int{1, 1500} {
			got := tracegen(t, "-source", source, "-seed", "3", "-samples", strconv.Itoa(n))
			if want := strings.Join(full[:n+1], ""); got != want {
				t.Fatalf("%s -samples %d: output is not the first %d lines of the full output", source, n, n+1)
			}
		}
	}
}
