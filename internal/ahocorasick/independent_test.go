package ahocorasick

import (
	"go/build"
	"strings"
	"testing"
)

// TestOracleIndependent: the oracle, and the certificate it vouches for a
// compiled table with, import nothing from this module, so no fault in the
// code they check can be shared by them.
func TestOracleIndependent(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "repro" || strings.HasPrefix(imp, "repro/") {
			t.Errorf("internal/ahocorasick imports %s", imp)
		}
	}
}
