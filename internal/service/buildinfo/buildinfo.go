// Package buildinfo derives one version string, shared by every binary
// in the module, from the metadata the Go toolchain embeds at build time
// (runtime/debug.ReadBuildInfo). Nothing is stamped by hand: a versioned
// build reports its module version, a checkout build reports its VCS
// revision, and both carry the toolchain that produced them, so `doall ctl
// version` against a remote daemon tells you exactly what is running.
package buildinfo

import (
	"runtime"
	"runtime/debug"
)

// Version returns the module's best-known version string:
//
//	v1.2.3+abcdef123456 (go1.22.1)      versioned build from a tag
//	devel+abcdef123456+dirty (go1.22.1) checkout build, modified tree
//	devel (go1.22.1)                    no build metadata at all (tests)
func Version() string {
	v := "devel"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v + " (" + runtime.Version() + ")"
	}
	versioned := false
	if mv := bi.Main.Version; mv != "" && mv != "(devel)" {
		v = mv
		versioned = true
	}
	// A pseudo-versioned or tagged build already names its commit; only a
	// bare "devel" checkout build needs the VCS revision appended.
	if !versioned {
		var rev string
		var dirty bool
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
			v += "+" + rev
			if dirty {
				v += "+dirty"
			}
		}
	}
	return v + " (" + runtime.Version() + ")"
}
