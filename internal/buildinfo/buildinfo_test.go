package buildinfo

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
)

func settings(kv ...string) *debug.BuildInfo {
	bi := &debug.BuildInfo{Main: debug.Module{Version: "(devel)"}}
	for i := 0; i+1 < len(kv); i += 2 {
		bi.Settings = append(bi.Settings, debug.BuildSetting{Key: kv[i], Value: kv[i+1]})
	}
	return bi
}

func TestVersionIdentity(t *testing.T) {
	digest := func() string { return "abc123abc123" }
	rev := "0123456789abcdef0123"
	for _, tc := range []struct {
		name string
		bi   *debug.BuildInfo
		want string
	}{
		{"clean", settings("vcs.revision", rev, "vcs.modified", "false"), "0123456789ab"},
		{"dirty", settings("vcs.revision", rev, "vcs.modified", "true"), "0123456789ab+dirty.abc123abc123"},
		{"unstamped", settings(), "dev.abc123abc123"},
		{"module", &debug.BuildInfo{Main: debug.Module{Version: "v1.2.3"}}, "v1.2.3"},
	} {
		if got := version(tc.bi, digest); got != tc.want {
			t.Errorf("%s: version = %q, want %q", tc.name, got, tc.want)
		}
	}
	// An unreadable executable degrades to the bare identity.
	if got := version(settings(), func() string { return "" }); got != "dev" {
		t.Errorf("no digest: version = %q, want dev", got)
	}
}

// Two different unstamped builds must not share a cache partition:
// the identity follows the executable's bytes.
func TestFileDigestFollowsContent(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a"), filepath.Join(dir, "b")
	if err := os.WriteFile(a, []byte("simulator build one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte("simulator build two"), 0o644); err != nil {
		t.Fatal(err)
	}
	da, db := fileDigest(a), fileDigest(b)
	if len(da) != 12 || len(db) != 12 || da == db {
		t.Errorf("digests %q, %q: want two distinct 12-digit digests", da, db)
	}
	if got := fileDigest(filepath.Join(dir, "missing")); got != "" {
		t.Errorf("missing executable digest = %q, want empty", got)
	}
}

// The running test binary is unstamped, so its version carries the
// digest of its own executable, and repeated calls agree.
func TestVersionOfThisBinary(t *testing.T) {
	v := Version()
	if v != Version() {
		t.Fatal("Version is not stable within a process")
	}
	if d := exeDigest(); d == "" || !strings.HasSuffix(v, "."+d) {
		t.Errorf("Version() = %q, want the executable digest %q appended", v, d)
	}
}
