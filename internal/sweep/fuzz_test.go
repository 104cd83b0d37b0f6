package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode: Decode never panics on any input, and every spec it
// accepts expands to between 1 and MaxCells cells, exactly Count() of
// them. The seeds are the committed specs: the sweep goldens' inputs,
// the example specs and the oversized grids in testdata/hostile. Plain
// go test runs only the seeds; make fuzz-smoke fuzzes for 20 s.
func FuzzDecode(f *testing.F) {
	seeds := 0
	for _, pattern := range []string{
		filepath.Join("testdata", "*.json"),
		filepath.Join("testdata", "hostile", "*.json"),
		filepath.Join("..", "..", "examples", "sweeps", "*.json"),
	} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(raw)
			seeds++
		}
	}
	if seeds < 13 {
		f.Fatalf("found %d seed specs, want the 5 testdata, 2 hostile and 6 example specs", seeds)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := s.Count()
		if n < 1 || n > MaxCells {
			t.Fatalf("accepted spec %q has Count() = %d, want 1..%d", s.Name, n, MaxCells)
		}
		if got := len(s.Cells()); got != n {
			t.Fatalf("accepted spec %q expands to %d cells, Count() = %d", s.Name, got, n)
		}
	})
}
