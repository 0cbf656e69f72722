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
	"namer/internal/samples"
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
	all, skipped, err := samples.All()
	if err != nil {
		t.Fatal(err)
	}
	if skipped != "" {
		t.Logf("goroot oracle skipped: %s", skipped)
	}
	for _, s := range all {
		t.Run(s.Name, func(t *testing.T) {
			var got []string
			for _, f := range s.Files {
				got = append(got, oracleLine(f.Path, f.Root, s.Lang))
			}
			golden := filepath.Join("testdata", "origins_"+s.Name+".golden")
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
