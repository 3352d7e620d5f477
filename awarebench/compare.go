package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchDef is the part of BENCHMARK.json compare needs: each end-to-end
// metric's bound and direction.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld, m := len(d), len(d)+1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles prints parent and change medians and quartiles for every
// workload × metric in two record files. An end-to-end metric whose change
// is within its bound is marked "~"; one whose spread on either side is
// wider than the bound is unresolved. Metrics without a bound (the
// per-layer ones) are shown without a verdict.
func compareFiles(w io.Writer, benchPath, parentPath, changePath string) error {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(b, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := func(rs []record) map[key][]float64 {
		out := make(map[key][]float64)
		for _, r := range rs {
			for name, v := range r.Metrics {
				k := key{r.Workload, name}
				if r.Trace == 1 {
					k.metric = "traced:" + name
				}
				out[k] = append(out[k], v)
			}
		}
		return out
	}
	pv, cv := values(parent), values(change)
	var keys []key
	for k := range pv {
		if _, ok := cv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-13s %-34s %12s %25s %12s %25s %9s  %s\n",
		"workload", "metric", "parent", "[q1 q3]", "change", "[q1 q3]", "delta", "verdict")
	for _, k := range keys {
		p1, p2, p3 := quartiles(pv[k])
		c1, c2, c3 := quartiles(cv[k])
		delta := ratio(c2-p2, math.Abs(p2))
		verdict := "-"
		for _, m := range def.EndToEnd {
			if m.Name != k.metric {
				continue
			}
			spreadP, spreadC := ratio(p3-p1, math.Abs(p2)), ratio(c3-c1, math.Abs(c2))
			worse := delta > 0
			if m.Better == "higher" {
				worse = delta < 0
			}
			switch {
			case spreadP > m.Bound || spreadC > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%%/%.1f%% > bound %.0f%%)", 100*spreadP, 100*spreadC, 100*m.Bound)
			case math.Abs(delta) <= m.Bound:
				verdict = "~"
			case worse:
				verdict = fmt.Sprintf("worse (bound %.0f%%)", 100*m.Bound)
			default:
				verdict = "better"
			}
		}
		fmt.Fprintf(w, "%-13s %-34s %12.4g [%11.4g %11.4g] %12.4g [%11.4g %11.4g] %+8.1f%%  %s\n",
			k.workload, k.metric, p2, p1, p3, c2, c1, c3, 100*delta, verdict)
	}
	return nil
}
