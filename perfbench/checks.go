package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"dtexl/internal/energy"
	"dtexl/internal/pipeline"
)

// cellResult is one simulation a workload ran, identified by benchmark,
// policy label and frame count.
type cellResult struct {
	id      string
	metrics *pipeline.Metrics
	energy  energy.Breakdown
}

// resultJSON is the canonical byte form of a result: the digest hashes it
// and the response checks compare it.
func resultJSON(m *pipeline.Metrics, e energy.Breakdown) ([]byte, error) {
	return json.Marshal(struct {
		Metrics *pipeline.Metrics `json:"metrics"`
		Energy  energy.Breakdown  `json:"energy"`
	}{m, e})
}

// sameMetrics reports whether two results marshal to the same bytes.
func sameMetrics(a, b *pipeline.Metrics) bool {
	x, errA := json.Marshal(a)
	y, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(x, y)
}

// checkSim tests the per-simulation invariants of the memory model and
// the stall accounting.
func checkSim(o *outcome, id string, m *pipeline.Metrics) {
	for _, lv := range []struct {
		name string
		acc  uint64
		hit  uint64
		miss uint64
	}{
		{"L1Tex", m.L1Tex.Accesses, m.L1Tex.Hits, m.L1Tex.Misses},
		{"L2", m.L2.Accesses, m.L2.Hits, m.L2.Misses},
	} {
		if lv.hit+lv.miss != lv.acc {
			o.fail("%s: %s hits %d + misses %d != accesses %d", id, lv.name, lv.hit, lv.miss, lv.acc)
		}
	}
	if m.L2.Accesses < m.L1Tex.Misses {
		o.fail("%s: L2 accesses %d < L1 texture misses %d", id, m.L2.Accesses, m.L1Tex.Misses)
	}
	for i, b := range m.SCBreakdown {
		if b.Total() != m.RasterCycles {
			o.fail("%s: SC %d stall causes sum to %d, raster cycles %d", id, i, b.Total(), m.RasterCycles)
		}
	}
}

// addModelCounters sums the simulated-model counters over the cells; a
// change that only speeds up the simulator leaves them identical.
func addModelCounters(o *outcome, cells []cellResult) {
	var l1, l1m, l2, dram, cyc float64
	for _, c := range cells {
		l1 += float64(c.metrics.L1Tex.Accesses)
		l1m += float64(c.metrics.L1Tex.Misses)
		l2 += float64(c.metrics.L2.Accesses)
		dram += float64(c.metrics.Events.DRAMAccesses)
		cyc += float64(c.metrics.Cycles)
	}
	o.metrics["cache.l1_accesses"] = l1
	o.metrics["cache.l1_misses"] = l1m
	o.metrics["cache.l2_accesses"] = l2
	o.metrics["dram.accesses"] = dram
	o.metrics["raster.sim_cycles"] = cyc
}

// setDigest hashes every cell's full Metrics and energy after extra (the
// suite's rendered tables), ordered by id and then by content, so cells
// that share an id hash in the same order however they were found.
func setDigest(o *outcome, extra []byte, cells []cellResult) error {
	type entry struct {
		id   string
		body []byte
	}
	entries := make([]entry, len(cells))
	for i, c := range cells {
		b, err := resultJSON(c.metrics, c.energy)
		if err != nil {
			return err
		}
		entries[i] = entry{c.id, b}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].id != entries[j].id {
			return entries[i].id < entries[j].id
		}
		return bytes.Compare(entries[i].body, entries[j].body) < 0
	})
	h := sha256.New()
	h.Write(extra)
	for _, e := range entries {
		fmt.Fprintf(h, "%s\n%s\n", e.id, e.body)
	}
	o.digest = hex.EncodeToString(h.Sum(nil))
	return nil
}

// finishDigest prints the run's digest and compares it with the reference
// for this workload and scale, or rewrites the reference under
// --update-digest.
func (o *outcome) finishDigest(opt *options, stdout io.Writer) error {
	if o.digest == "" {
		return fmt.Errorf("workload produced no digest")
	}
	fmt.Fprintf(stdout, "digest %s scale=%d %s\n", opt.workload, o.scale, o.digest)
	refs, err := readDigests(opt.digestFile)
	if err != nil && !(opt.updateDigest && os.IsNotExist(err)) {
		return err
	}
	key := opt.workload + " " + strconv.Itoa(o.scale)
	if opt.updateDigest {
		if refs == nil {
			refs = map[string]string{}
		}
		refs[key] = o.digest
		return writeDigests(opt.digestFile, refs)
	}
	want, ok := refs[key]
	switch {
	case !ok:
		return fmt.Errorf("no reference digest for %q in %s", key, opt.digestFile)
	case want != o.digest:
		return fmt.Errorf("simulated statistics changed: digest %s, reference %s", o.digest, want)
	}
	return nil
}

// The reference file holds one "<workload> <scale> <sha256>" line each;
// lines starting with # are comments.
func readDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	refs := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		refs[f[0]+" "+f[1]] = f[2]
	}
	return refs, sc.Err()
}

func writeDigests(path string, refs map[string]string) error {
	keys := make([]string, 0, len(refs))
	for k := range refs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteString("# Reference digests of every simulated statistic, one per workload and\n" +
		"# scale divisor. Regenerate with --update-digest (see README.md).\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, refs[k])
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
