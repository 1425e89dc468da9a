package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// metricSet maps a Prometheus series, written as the exposition prints
// it (name plus label set), to its value. Histogram _bucket series are
// stored as per-bucket counts rather than the exposition's cumulative
// ones, so sets scraped from several nodes or at two instants can be
// added and subtracted series by series.
type metricSet map[string]float64

// parseText reads the Prometheus text exposition the program writes
// (Client.WriteMetrics, Node.WriteMetrics, the gateway's /-/metrics).
func parseText(r io.Reader) (metricSet, error) {
	m := make(metricSet)
	lastCum := make(map[string]float64) // histogram series (without le) → cumulative count so far
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		series, vs := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(vs, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		if name, labels := splitSeries(series); strings.HasSuffix(name, "_bucket") {
			group := name + "{" + withoutLE(labels) + "}"
			v, lastCum[group] = v-lastCum[group], v
		}
		m[series] += v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return m, nil
}

// splitSeries splits `name{labels}` into name and the label list.
func splitSeries(series string) (name, labels string) {
	i := strings.IndexByte(series, '{')
	if i < 0 {
		return series, ""
	}
	return series[:i], strings.TrimSuffix(series[i+1:], "}")
}

// withoutLE drops the le label from a label list.
func withoutLE(labels string) string {
	var keep []string
	for _, l := range strings.Split(labels, ",") {
		if l != "" && !strings.HasPrefix(l, "le=") {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, ",")
}

// add adds o into m.
func (m metricSet) add(o metricSet) {
	for k, v := range o {
		m[k] += v
	}
}

// sub returns m − o.
func (m metricSet) sub(o metricSet) metricSet {
	out := make(metricSet, len(m))
	for k, v := range m {
		out[k] = v
	}
	for k, v := range o {
		out[k] -= v
	}
	return out
}

// family sums every series of one metric family (all label sets).
func (m metricSet) family(name string) float64 {
	var s float64
	for k, v := range m {
		if n, _ := splitSeries(k); n == name {
			s += v
		}
	}
	return s
}

// quantile estimates the q-th quantile of a histogram family with the
// given labels (without le) from its per-bucket counts, interpolating
// linearly inside the bucket that holds the rank. Bucket bounds are
// the exposition's le values in seconds; a bucket's lower bound is
// taken as le·16/17, the narrowest relative width the program's
// log-bucketed histograms use. Returns 0 when the histogram is empty.
func (m metricSet) quantile(name, labels string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	var total float64
	for k, v := range m {
		n, ls := splitSeries(k)
		if n != name+"_bucket" || withoutLE(ls) != labels || v <= 0 {
			continue
		}
		le := math.Inf(1)
		for _, l := range strings.Split(ls, ",") {
			if s, ok := strings.CutPrefix(l, "le="); ok {
				if f, err := strconv.ParseFloat(strings.Trim(s, `"`), 64); err == nil {
					le = f
				}
			}
		}
		bs = append(bs, bucket{le, v})
		total += v
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	rank := q * total
	var cum float64
	for i, b := range bs {
		if cum+b.n >= rank {
			if math.IsInf(b.le, 1) {
				if i == 0 {
					return 0
				}
				return bs[i-1].le
			}
			lo := b.le * 16 / 17
			return lo + (b.le-lo)*(rank-cum)/b.n
		}
		cum += b.n
	}
	return bs[len(bs)-1].le
}
