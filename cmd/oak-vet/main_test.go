package main

import (
	"strings"
	"testing"
)

func TestListNamesTheAnalyzers(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		name, _, _ := strings.Cut(line, ":")
		names = append(names, name)
	}
	want := "zcescape pinbalance lockset"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("-list names %q, want %q", got, want)
	}
}

// A script still naming a folded or deleted analyzer must fail loudly
// rather than check nothing.
func TestRemovedAnalyzerNameFails(t *testing.T) {
	for _, name := range []string{"lockguard", "faultpointid", "unsafespan"} {
		var out, errb strings.Builder
		if code := run([]string{"-checks", name, "./..."}, &out, &errb); code != 1 {
			t.Errorf("-checks %s exited %d, want 1", name, code)
		}
		if !strings.Contains(errb.String(), "unknown analyzer") {
			t.Errorf("-checks %s: stderr %q does not say unknown analyzer", name, errb.String())
		}
	}
}
