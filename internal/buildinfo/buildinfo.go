// Package buildinfo resolves the running build's version string. The
// content-addressed result cache partitions on it, so results computed
// by one build never serve a request from another: simulator changes
// that alter numbers invalidate the cache automatically.
package buildinfo

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime/debug"
	"sync"
)

// Version returns the best available identity of this build: the VCS
// revision baked in by the Go toolchain (suffixed "+dirty" for
// modified trees), else the module version, else "dev". A revision
// alone cannot tell two builds of a modified tree apart, and "dev"
// cannot tell any two unstamped builds apart, so both get a digest of
// the running executable appended.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev" + suffix(exeDigest())
	}
	return version(bi, exeDigest)
}

// version derives the identity from build settings; digest supplies
// the executable digest for unstamped or dirty builds.
func version(bi *debug.BuildInfo, digest func() string) string {
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if dirty {
			return rev + "+dirty" + suffix(digest())
		}
		return rev
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "dev" + suffix(digest())
}

// suffix joins a digest onto a version; an empty digest adds nothing.
func suffix(d string) string {
	if d == "" {
		return ""
	}
	return "." + d
}

var (
	exeOnce sync.Once
	exeSum  string
)

// exeDigest returns the first 12 hex digits of the SHA-256 of the
// running executable, computed once per process; "" when the
// executable cannot be read.
func exeDigest() string {
	exeOnce.Do(func() {
		if path, err := os.Executable(); err == nil {
			exeSum = fileDigest(path)
		}
	})
	return exeSum
}

// fileDigest returns the first 12 hex digits of the SHA-256 of the
// file at path, or "" when it cannot be read.
func fileDigest(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
