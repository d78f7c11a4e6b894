package repro

import (
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestReadmeNamesEveryLock is the README lint CI runs beside the
// package-doc lint: the backticked names in the first column of the
// tables under README's "Picking a lock" heading (the base locks and
// the derived families) must be exactly the registered names, so the
// tables cannot drift from the registry in either direction.
func TestReadmeNamesEveryLock(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	inSection, inFence := false, false
	backticked := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "```") {
			inFence = !inFence
		}
		if inFence {
			continue
		}
		if strings.HasPrefix(line, "#") {
			inSection = line == "## Picking a lock"
			continue
		}
		if !inSection || !strings.HasPrefix(line, "|") {
			continue
		}
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		for _, m := range backticked.FindAllStringSubmatch(first, -1) {
			listed[m[1]] = true
		}
	}
	names := LockNames()
	for _, name := range names {
		if !listed[name] {
			t.Errorf("README's \"Picking a lock\" tables do not list the registered lock %q", name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(listed)) {
		if !slices.Contains(names, name) {
			t.Errorf("README's \"Picking a lock\" tables list %q, which is not a registered lock", name)
		}
	}
}
