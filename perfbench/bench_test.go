package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the result line must follow.
type spec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestResultFormat runs every workload, untraced and traced, with a short
// budget and checks the last output line against BENCHMARK.json: exactly
// the keys correct/attempted/failed/metrics, a correct run without failed
// operations, and exactly the named metrics, each with its unit.
func TestResultFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for trace, metrics := range map[string][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{"0": s.EndToEnd, "1": s.PerLayer} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				args := append(append([]string(nil), s.Command[1:]...), "--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace)
				cmd := exec.Command(s.Command[0], args...)
				cmd.Dir = ".."
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				last := lines[len(lines)-1]
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(last), &raw); err != nil {
					t.Fatalf("last line is not a JSON object: %v: %q", err, last)
				}
				if len(raw) != 4 {
					t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", keys(raw))
				}
				var res result
				dec := json.NewDecoder(strings.NewReader(last))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("decoding result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				for _, m := range metrics {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
						continue
					}
					if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
					if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("metric %s = %v", m.Name, got.Value)
					}
					delete(res.Metrics, m.Name)
				}
				for name := range res.Metrics {
					t.Errorf("metric %s is printed but not named in BENCHMARK.json", name)
				}
			})
		}
	}
}

// TestRefusesBareDirectory checks that, in a directory holding only
// BENCHMARK.json and the benchmark's own files, the benchmark exits
// non-zero without printing a result.
func TestRefusesBareDirectory(t *testing.T) {
	s := loadSpec(t)
	dir := t.TempDir()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, "perfbench", path)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	args := append(append([]string(nil), s.Command[1:]...), "--workload", s.Workloads[0].Name, "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd := exec.Command(s.Command[0], args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("benchmark succeeded in a bare directory; stdout %q", out)
	}
	if strings.Contains(string(out), `"metrics"`) {
		t.Errorf("benchmark printed a result in a bare directory: %q", out)
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
