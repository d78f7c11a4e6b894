package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickMatchesGolden checks that the quick evaluation with the
// ablations prints exactly testdata/quick.golden: no simulated number of
// any figure, table or ablation may move. The golden was generated on
// linux/amd64 with `go run ./cmd/reproduce -quick -ablations`.
func TestQuickMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole quick evaluation")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got, []string{"-quick", "-ablations"}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("line %d differs from the golden:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}
