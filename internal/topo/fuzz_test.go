package topo

import "testing"

// FuzzParseIOMMUScope: ParseIOMMUScope never panics, returns nothing
// with an error, and maps an accepted scope to one of the two canonical
// forms, which re-parses to itself.
func FuzzParseIOMMUScope(f *testing.F) {
	for _, s := range []string{"", "global", "per-socket", "Global", "per_socket", "per-socket ", "none"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseIOMMUScope(s)
		if err != nil {
			if v != "" {
				t.Fatalf("%q rejected but returned %q", s, v)
			}
			return
		}
		if v != IOMMUScopeGlobal && v != IOMMUScopePerSocket {
			t.Fatalf("%q accepted as %q, not a canonical scope", s, v)
		}
		if again, err := ParseIOMMUScope(v); err != nil || again != v {
			t.Fatalf("%q: canonical %q re-parses to %q, %v", s, v, again, err)
		}
	})
}
