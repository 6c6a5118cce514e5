package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// Golden tests pin the quick-mode CSV outputs of the headline tables
// and of every experiment that scores an adaptation policy (fig6,
// xdvfs, xidealism). Everything in the repository is deterministic,
// and the CSVs format floats with %g, so any diff is a real behavior
// change. Regenerate intentionally with:
//
//	LPP_UPDATE_GOLDEN=1 go test ./internal/experiments -run TestGolden
func TestGoldenTables(t *testing.T) {
	update := os.Getenv("LPP_UPDATE_GOLDEN") != ""
	// One cache across the subtests: each workload is analyzed once.
	cache := NewCache()
	for _, c := range []struct {
		exp   string
		files []string
	}{
		{"table2", []string{"table2.csv"}},
		{"table4", []string{"table4.csv"}},
		{"table6", []string{"table6.csv"}},
		{"fig6", []string{"fig6_bound00.csv", "fig6_bound05.csv"}},
		{"xdvfs", []string{"xdvfs.csv"}},
		{"xidealism", []string{"xidealism.csv"}},
	} {
		t.Run(c.exp, func(t *testing.T) {
			e, err := ByName(c.exp)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			var buf bytes.Buffer
			if err := e.Run(Options{W: &buf, Quick: true, OutDir: dir, Cache: cache}); err != nil {
				t.Fatal(err)
			}
			for _, file := range c.files {
				got, err := os.ReadFile(filepath.Join(dir, file))
				if err != nil {
					t.Fatal(err)
				}
				golden := filepath.Join("testdata", file[:len(file)-len(".csv")]+"_quick.golden.csv")
				if update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("missing golden file (run with LPP_UPDATE_GOLDEN=1): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s quick output changed.\ngot:\n%s\nwant:\n%s", file, got, want)
				}
			}
		})
	}
}
