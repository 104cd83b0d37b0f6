package sweep

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hostileSpec reads one of the oversized grids in testdata/hostile: a
// few kilobytes of JSON that name billions of cells (grid-4e9: 6 axes
// of 40 values) or more than an int holds (grid-overflow: 12 axes of
// 40).
func hostileSpec(t testing.TB, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "hostile", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestGridBound: Count saturates instead of overflowing, and Decode
// rejects the hostile grids before expanding a single cell.
func TestGridBound(t *testing.T) {
	for _, c := range []struct {
		file  string
		count int
	}{
		{"grid-overflow.json", math.MaxInt},
		{"grid-4e9.json", 4_096_000_000},
	} {
		raw := hostileSpec(t, c.file)
		var s Spec
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatal(err)
		}
		if got := s.Count(); got != c.count {
			t.Fatalf("%s: Count() = %d, want %d", c.file, got, c.count)
		}
		_, err := Decode(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), "more than 65536 cells") {
			t.Errorf("%s: Decode error %v, want the grid bound", c.file, err)
		}
	}

	// An empty axis anywhere empties the grid, even after saturation.
	wide := Axis{Name: "transfer", Values: make([]string, 1<<16)}
	s := &Spec{Axes: []Axis{wide, wide, wide, wide, StrAxis("cache")}}
	if got := s.Count(); got != 0 {
		t.Errorf("Count() with an empty axis = %d, want 0", got)
	}
}
