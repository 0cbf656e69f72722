package pointsto

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"namer/internal/ast"
)

var update = flag.Bool("update", false, "rewrite the origin oracle's golden files under testdata")

// oracleLine pins what Analyze computes for one file: the statistics and
// a digest of the origin of every node in pre-order. Two analyses that
// agree on the line decorate the AST+ identically.
func oracleLine(path string, root *ast.Node, lang ast.Language) string {
	res := Analyze(root, lang, DefaultOptions())
	h := sha256.New()
	i := 0
	root.Walk(func(n *ast.Node) bool {
		if o, ok := res.OriginOf(n); ok {
			fmt.Fprintf(h, "%d\t%s\n", i, o)
		}
		i++
		return true
	})
	st := res.Stats
	return fmt.Sprintf("%s facts=%d fellback=%t contexts=%d origins=%d digest=%s",
		path, st.Facts, st.FellBack, st.Contexts, res.OriginCount(), hex.EncodeToString(h.Sum(nil))[:16])
}

// TestOriginOracle compares every file's oracle line with
// testdata/origins_<sample>.golden. Run it with -update to re-record
// after a change that is meant to alter origins.
func TestOriginOracle(t *testing.T) {
	samples := []sample{syntheticSample(t, ast.Python), syntheticSample(t, ast.Java)}
	if s, ok, reason := gorootSample(t); ok {
		samples = append(samples, s)
	} else {
		t.Logf("goroot oracle skipped: %s", reason)
	}
	for _, s := range samples {
		t.Run(s.name, func(t *testing.T) {
			var got []string
			for _, f := range s.files {
				got = append(got, oracleLine(f.path, f.root, s.lang))
			}
			golden := filepath.Join("testdata", "origins_"+s.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
			if len(got) != len(want) {
				t.Fatalf("%d files analyzed, golden has %d", len(got), len(want))
			}
			bad := 0
			for i := range got {
				if got[i] != want[i] {
					if bad++; bad <= 10 {
						t.Errorf("got  %s\nwant %s", got[i], want[i])
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d files differ from %s", bad, len(got), golden)
			}
		})
	}
}
