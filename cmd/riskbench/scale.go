package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"sightrisk/internal/graph"
	"sightrisk/internal/graph/snapfile"
	"sightrisk/internal/obs"
	"sightrisk/internal/synthetic"

	sight "sightrisk"
)

// scaleRow is one population size's measurements in the scale curve.
type scaleRow struct {
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	GenerateMS   float64 `json:"generate_ms"`
	SnapBytes    int64   `json:"snap_bytes"`
	SnapWriteMS  float64 `json:"snap_write_ms"`
	SnapOpenMS   float64 `json:"snap_open_ms"`
	JSONBytes    int64   `json:"json_bytes,omitempty"`
	JSONLoadMS   float64 `json:"json_load_ms,omitempty"`
	OpenSpeedup  float64 `json:"open_speedup,omitempty"`
	Owners       int     `json:"owners"`
	OwnersPerSec float64 `json:"owners_per_sec"`
	RSSMB        float64 `json:"rss_mb"`
	ByteIdent    *bool   `json:"mmap_byte_identical,omitempty"`
}

// scaleBench is the BENCH_scale.json document.
type scaleBench struct {
	GeneratedAt string     `json:"generated_at"`
	Seed        int64      `json:"seed"`
	Rows        []scaleRow `json:"rows"`
}

// byteIdentityMax is the largest population we double-run (mmap vs
// in-memory) per size to assert report byte-identity; beyond it the
// invariant is covered by the smaller sizes and the package tests.
const byteIdentityMax = 200_000

// scaleMemNeed estimates the peak resident bytes one sweep size costs:
// generation scratch (weights, alias table, edge keys), the CSR and
// profile arrays twice (in-memory + mapped), and the map-backed graph
// that graph.Load materializes for the JSON comparison — by far the
// dominant term.
func scaleMemNeed(nodes int, avgDegree float64) uint64 {
	e := uint64(float64(nodes) * avgDegree / 2)
	gen := uint64(nodes)*28 + e*8
	csr := 2 * (uint64(nodes)*16 + e*24)
	jsonGraph := e * 200 // two map entries per edge plus buckets
	return gen + csr + jsonGraph
}

// memAvailable reads MemAvailable from /proc/meminfo in bytes
// (0, false when unreadable — non-Linux or restricted).
func memAvailable() (uint64, bool) {
	data, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "MemAvailable:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}

// rssMB reads the process's resident set size from /proc/self/status
// in MiB (0 when unreadable).
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, _ := strconv.ParseFloat(fields[1], 64)
		return kb / 1024
	}
	return 0
}

// writeCSRJSON streams the snapshot as the graph package's JSON edge
// list without materializing a map-backed Graph — the writer side of
// the mmap-vs-JSON load comparison.
func writeCSRJSON(path string, snap *graph.Snapshot) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	bw.WriteString(`{"nodes":[`)
	for i, id := range snap.Nodes() {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.FormatInt(int64(id), 10))
	}
	bw.WriteString(`],"edges":[`)
	first := true
	for _, id := range snap.Nodes() {
		for _, nb := range snap.Friends(id) {
			if nb <= id {
				continue
			}
			if !first {
				bw.WriteByte(',')
			}
			first = false
			bw.WriteByte('[')
			bw.WriteString(strconv.FormatInt(int64(id), 10))
			bw.WriteByte(',')
			bw.WriteString(strconv.FormatInt(int64(nb), 10))
			bw.WriteByte(']')
		}
	}
	bw.WriteString(`]}`)
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// scaleAnnotator answers the owner's labeling questions with a cheap
// deterministic rule, so owners/sec measures the pipeline, not the
// annotator.
func scaleAnnotator() sight.Annotator {
	return sight.AnnotatorFunc(func(s sight.UserID) sight.Label {
		return sight.Label(int(s)%3 + 1)
	})
}

// runScaleOwners estimates every owner on the network and returns the
// marshaled reports (for the byte-identity check) plus the elapsed
// wall time.
func runScaleOwners(net *sight.Network, owners []graph.UserID, seed int64) ([][]byte, time.Duration, error) {
	opts := sight.DefaultOptions()
	opts.Seed = seed
	ann := scaleAnnotator()
	out := make([][]byte, 0, len(owners))
	start := time.Now()
	for _, o := range owners {
		rep, err := sight.EstimateRisk(context.Background(), net, o, ann, opts)
		if err != nil {
			return nil, 0, fmt.Errorf("owner %d: %w", o, err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, b)
	}
	return out, time.Since(start), nil
}

// auditSnapfile is the snapshot-file leg of -audit mode: the same
// owners estimated twice with the event auditor attached and stage
// digests on — once off the freshly generated in-memory CSR arrays,
// once off a packed, mmap'd snapshot file. The reports and the full
// event trails must both be bit-identical. Returns the events per run
// and a divergence description ("" on pass).
func auditSnapfile(seed int64) (int, string, error) {
	cfg := synthetic.DefaultScaleConfig(10000)
	cfg.Seed = seed
	cfg.Owners = 2
	sg, err := synthetic.GenerateScale(cfg)
	if err != nil {
		return 0, "", err
	}
	dir, err := os.MkdirTemp("", "riskbench-audit-*")
	if err != nil {
		return 0, "", err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "audit.snap")
	if err := snapfile.Create(path, snapfile.Contents{Snapshot: sg.Snapshot, Profiles: sg.Profiles}); err != nil {
		return 0, "", err
	}
	f, err := snapfile.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()

	runSide := func(net *sight.Network) ([][]byte, []obs.Record, error) {
		opts := sight.DefaultOptions()
		opts.Seed = seed
		aud := obs.NewAuditor()
		opts.Observability.Observer = aud
		opts.Observability.Trace.Digests = true
		ann := scaleAnnotator()
		reports := make([][]byte, 0, len(sg.Owners))
		for _, o := range sg.Owners {
			rep, err := sight.EstimateRisk(context.Background(), net, o, ann, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("owner %d: %w", o, err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				return nil, nil, err
			}
			reports = append(reports, b)
		}
		return reports, aud.Trail(), nil
	}

	memReports, memTrail, err := runSide(sight.WrapSnapshot(sg.Snapshot, sg.Profiles.Store()))
	if err != nil {
		return 0, "", fmt.Errorf("in-memory run: %w", err)
	}
	mmapReports, mmapTrail, err := runSide(sight.WrapSnapshot(f.Snapshot(), f.Profiles().Store()))
	if err != nil {
		return 0, "", fmt.Errorf("mmap run: %w", err)
	}
	for i := range memReports {
		if !bytes.Equal(memReports[i], mmapReports[i]) {
			return len(memTrail), fmt.Sprintf("owner %d: mmap-backed report differs from in-memory report", sg.Owners[i]), nil
		}
	}
	if d, diverged := obs.FirstDivergence(memTrail, mmapTrail); diverged {
		return len(memTrail), d.String(), nil
	}
	return len(memTrail), "", nil
}

// runScaleBench is -scale sweep mode: for each population size it
// generates a SNAP-Facebook-like graph straight into CSR, packs it
// into a snapshot file, measures mmap open vs JSON load, runs every
// benchmark owner off the mapped pages, and (at the smaller sizes)
// verifies the mmap-backed reports byte-identical to in-memory ones.
// Results go to stdout and to outPath as JSON.
func runScaleBench(sizesSpec string, seed int64, owners int, outPath string) error {
	var sizes []int
	for _, s := range strings.Split(sizesSpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			return fmt.Errorf("bad -scale-sizes entry %q", s)
		}
		sizes = append(sizes, n)
	}
	dir, err := os.MkdirTemp("", "riskbench-scale-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bench := scaleBench{GeneratedAt: time.Now().UTC().Format(time.RFC3339), Seed: seed}
	fmt.Printf("riskbench: scale sweep sizes=%v seed=%d\n", sizes, seed)
	fmt.Printf("%10s %10s %12s %12s %12s %12s %9s %12s %9s %6s\n",
		"nodes", "edges", "generate", "snap write", "mmap open", "json load", "speedup", "owners/sec", "rss MB", "ident")

	for _, n := range sizes {
		cfg := synthetic.DefaultScaleConfig(n)
		cfg.Seed = seed
		if owners > 0 {
			cfg.Owners = owners
		}
		if avail, ok := memAvailable(); ok {
			if need := scaleMemNeed(n, cfg.AvgDegree); need > avail {
				fmt.Printf("riskbench: stopping before %d nodes: needs ~%.1f GiB, %.1f GiB available\n",
					n, float64(need)/(1<<30), float64(avail)/(1<<30))
				break
			}
		}

		genStart := time.Now()
		sg, err := synthetic.GenerateScale(cfg)
		if err != nil {
			return fmt.Errorf("generate %d: %w", n, err)
		}
		genT := time.Since(genStart)

		snapPath := filepath.Join(dir, fmt.Sprintf("scale-%d.snap", n))
		writeStart := time.Now()
		if err := snapfile.Create(snapPath, snapfile.Contents{Snapshot: sg.Snapshot, Profiles: sg.Profiles}); err != nil {
			return fmt.Errorf("pack %d: %w", n, err)
		}
		writeT := time.Since(writeStart)
		st, err := os.Stat(snapPath)
		if err != nil {
			return err
		}

		openStart := time.Now()
		f, err := snapfile.Open(snapPath)
		if err != nil {
			return fmt.Errorf("open %d: %w", n, err)
		}
		openT := time.Since(openStart)

		row := scaleRow{
			Nodes:       sg.Snapshot.NumNodes(),
			Edges:       sg.Snapshot.NumEdges(),
			GenerateMS:  float64(genT.Microseconds()) / 1000,
			SnapBytes:   st.Size(),
			SnapWriteMS: float64(writeT.Microseconds()) / 1000,
			SnapOpenMS:  float64(openT.Microseconds()) / 1000,
			Owners:      len(sg.Owners),
		}

		// JSON comparison: the same graph through the text codec, when
		// it fits under the decoder's size limit.
		jsonPath := filepath.Join(dir, fmt.Sprintf("scale-%d.json", n))
		jsonBytes, err := writeCSRJSON(jsonPath, sg.Snapshot)
		if err != nil {
			return fmt.Errorf("json write %d: %w", n, err)
		}
		jsonCell := "-"
		if jsonBytes <= graph.MaxDecodeBytes {
			loadStart := time.Now()
			if _, err := graph.Load(jsonPath); err != nil {
				return fmt.Errorf("json load %d: %w", n, err)
			}
			loadT := time.Since(loadStart)
			row.JSONBytes = jsonBytes
			row.JSONLoadMS = float64(loadT.Microseconds()) / 1000
			if openT > 0 {
				row.OpenSpeedup = row.JSONLoadMS / row.SnapOpenMS
			}
			jsonCell = loadT.Round(time.Millisecond).String()
		}
		os.Remove(jsonPath)

		// Owner throughput off the mapped pages.
		mmapNet := sight.WrapSnapshot(f.Snapshot(), f.Profiles().Store())
		mmapReports, elapsed, err := runScaleOwners(mmapNet, sg.Owners, seed)
		if err != nil {
			return fmt.Errorf("owners at %d: %w", n, err)
		}
		if elapsed > 0 {
			row.OwnersPerSec = float64(len(sg.Owners)) / elapsed.Seconds()
		}
		row.RSSMB = rssMB()

		// Standing invariant: mmap-backed estimates are byte-identical
		// to ones computed off the freshly generated in-memory arrays.
		identCell := "-"
		if n <= byteIdentityMax {
			memNet := sight.WrapSnapshot(sg.Snapshot, sg.Profiles.Store())
			memReports, _, err := runScaleOwners(memNet, sg.Owners, seed)
			if err != nil {
				return fmt.Errorf("in-memory owners at %d: %w", n, err)
			}
			ident := len(memReports) == len(mmapReports)
			for i := range memReports {
				if !ident || !bytes.Equal(memReports[i], mmapReports[i]) {
					ident = false
					break
				}
			}
			row.ByteIdent = &ident
			identCell = "yes"
			if !ident {
				f.Close()
				return fmt.Errorf("scale %d: mmap-backed reports differ from in-memory reports", n)
			}
		}
		f.Close()
		os.Remove(snapPath)

		speedCell := "-"
		if row.OpenSpeedup > 0 {
			speedCell = fmt.Sprintf("%.0fx", row.OpenSpeedup)
		}
		fmt.Printf("%10d %10d %12s %12s %12s %12s %9s %12.1f %9.0f %6s\n",
			row.Nodes, row.Edges, genT.Round(time.Millisecond), writeT.Round(time.Millisecond),
			openT.Round(100*time.Microsecond), jsonCell, speedCell, row.OwnersPerSec, row.RSSMB, identCell)
		bench.Rows = append(bench.Rows, row)
	}

	if len(bench.Rows) == 0 {
		return fmt.Errorf("scale sweep: no size fit in available memory")
	}
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(bench); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("riskbench: wrote %s (%d sizes)\n", outPath, len(bench.Rows))
	return nil
}
