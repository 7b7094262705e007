package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// provenance stamps a result with everything needed to reproduce or
// discount it.
func provenance(name string, cfg runConfig, o *outcome, elapsed time.Duration) map[string]any {
	return map[string]any{
		"workload":      name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds.Seconds(),
		"trace":         cfg.trace,
		"quick":         cfg.quick,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"numcpu":        runtime.NumCPU(),
		"go":            runtime.Version(),
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"samples":       o.samples,
		"info":          o.info,
		"elapsed_s":     elapsed.Seconds(),
	}
}

// commit is the VCS revision the binary was built from, when the build
// saw a repository; a plain source tree yields "unknown" and the source
// digest identifies the code instead.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root, skipping
// hidden directories (build output lives in one).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".s" && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func historyPath(out, name string, cfg runConfig) string {
	mode := "e2e"
	if cfg.trace {
		mode = "layer"
	}
	if cfg.quick {
		mode += "-quick"
	}
	return filepath.Join(out, "history", name+"-"+mode+".jsonl")
}

func traceDir(out, name string, cfg runConfig) string {
	return filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d", name, cfg.seed))
}

// spread is one metric's run-to-run quartiles over the recorded history.
type spread struct {
	q1, q2, q3 float64
	runs       int
}

// recordHistory appends this run's metrics to the workload's history file
// and returns each metric's quartiles over every run recorded there, so
// each result carries its run-to-run spread.
func recordHistory(out, name string, cfg runConfig, metrics map[string]metricValue) (map[string]spread, error) {
	path := historyPath(out, name, cfg)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	vals := map[string]float64{}
	for k, m := range metrics {
		vals[k] = m.Value
	}
	line, err := json.Marshal(map[string]any{"seed": cfg.seed, "time": time.Now().UTC().Format(time.RFC3339), "metrics": vals})
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("append history: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	series := map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var rec struct {
			Metrics map[string]float64 `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue // a torn line from an interrupted run
		}
		for k, v := range rec.Metrics {
			series[k] = append(series[k], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read history: %w", err)
	}
	out2 := map[string]spread{}
	for k, xs := range series {
		q1, q2, q3 := quartiles(xs)
		out2[k] = spread{q1, q2, q3, len(xs)}
	}
	return out2, f.Close()
}

// report renders one line per metric: value, unit, sample count where a
// timing has one, and the run-to-run quartiles so far.
func report(name string, cfg runConfig, o *outcome, defs []metricDef, extras []string, printed map[string]metricValue, hist map[string]spread) []string {
	lines := []string{fmt.Sprintf("# secbench %s seed=%d seconds=%v trace=%v", name, cfg.seed, cfg.seconds.Seconds(), cfg.trace)}
	names := make([]string, 0, len(defs)+len(extras))
	for _, d := range defs {
		names = append(names, d.name)
	}
	names = append(names, extras...)
	for _, n := range names {
		m := printed[n]
		l := fmt.Sprintf("%-28s %14.6g %-6s", n, m.Value, m.Unit)
		if s, ok := o.samples[n]; ok {
			l += fmt.Sprintf(" n=%d", s)
		}
		if h, ok := hist[n]; ok && h.runs > 1 {
			l += fmt.Sprintf("  runs=%d q1=%.6g median=%.6g q3=%.6g iqr/median=%.3f", h.runs, h.q1, h.q2, h.q3, ratio(h.q3-h.q1, h.q2))
		}
		lines = append(lines, l)
	}
	return lines
}
