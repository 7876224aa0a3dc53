// Command sightctl manages risk-estimation studies on disk.
//
// Subcommands:
//
//	sightctl generate -out study.json [-owners N] [-strangers N] [-seed N]
//	    Generate a synthetic study (graph, profiles, owners with
//	    ground-truth labels) and save it as JSON.
//
//	sightctl info -in study.json
//	    Print dataset statistics.
//
//	sightctl pack -in study.json -out study.snap
//	    Pack a JSON study into the binary snapshot container
//	    (internal/graph/snapfile): checksummed CSR arrays plus interned
//	    profiles, opened by sightd and riskbench via mmap with no
//	    parse step.
//
//	sightctl run -in study.json [-owner ID] [-strategy npp|nsp] [-v] [-interactive] [-checkpoint file] [-server URL]
//	    Run the risk-estimation pipeline for one owner (or all owners)
//	    using the stored labels as the annotator — or, with
//	    -interactive, answering the paper's labeling question on the
//	    terminal — and print the resulting risk report. SIGINT/SIGTERM
//	    cancel the run gracefully: the partial report is printed with
//	    per-pool status, and with -checkpoint the session state is on
//	    disk so the same invocation resumes where it stopped. With
//	    -server the same run goes through a sightd server instead: the
//	    network is submitted inline and the annotator answers the
//	    long-polled owner questions over the wire (the serving layer is
//	    deterministic, so the printed report is identical).
//
//	sightctl crawl -in study.json -owner ID [-ticks N] [-failprob P]
//	    Simulate the Sight crawler discovering the owner's strangers
//	    and print progress snapshots, optionally under transient API
//	    failures.
//
//	sightctl tune -in study.json [-owner ID]
//	    Mine pipeline parameters (α, β, Squeezer weights, θ) from the
//	    dataset.
//
//	sightctl export -in study.json [-owner ID] [-out neighborhood.dot]
//	    Write the owner's neighborhood as Graphviz DOT, strangers
//	    colored by their stored risk labels.
//
//	sightctl updates -server URL -dataset NAME [-owner ID] [-file updates.json] [-revise JOBID] [-v]
//	    Apply a batch of graph/profile updates (a JSON array of
//	    {"kind","a","b","attr","value","visible"} records, read from
//	    -file or stdin) to a mutable dataset on a sightd server. With
//	    -revise the batch is applied through the revision endpoint of a
//	    finished estimate and the per-pool report deltas are streamed
//	    as they land — reused pools are marked, so the output shows how
//	    much of the prior run the updates actually invalidated. The
//	    revised report is byte-identical to a from-scratch run against
//	    the updated dataset.
//
//	sightctl advise -server URL -dataset NAME -owner ID -candidate ID [-seed N] [-v]
//	    Evaluate a pending friendship request before accepting it: the
//	    server scores the counterfactual graph with the (owner,
//	    candidate) edge added against the owner's current estimate —
//	    riding the incremental delta engine, so only the pools the new
//	    edge dirties are recomputed — and prints the accept/review/
//	    decline verdict with the before/after risk reach and, with -v,
//	    the per-item exposure table.
//
//	sightctl stats -server URL -dataset NAME [-tenant T] [-epoch N] [-epsilon E] [-noise visibility_aware|all_edge]
//	    Fetch one privacy-preserving statistics release for a dataset:
//	    edge count, degree histogram, triangle and k-star counts and
//	    per-item visibility rates under edge-level local differential
//	    privacy with visibility-aware noise (docs/ANALYTICS.md). The
//	    noise is seeded by the full release identity (tenant, dataset,
//	    epoch, epsilon, noise mode, dataset generation): repeating the
//	    same query re-serves identical numbers without spending more of
//	    the tenant's ε budget, while a new epoch — or any other changed
//	    coordinate — buys a fresh, independent draw.
//
//	sightctl cluster -server n1=URL,n2=URL,...
//	    Print per-replica health for a multi-node sightd cluster: node
//	    id, readiness, ring version, shard ownership and each node's
//	    view of its peers — enough to tell a draining replica from a
//	    dead one at a glance.
//
// Everywhere -server is accepted it takes either one base URL or a
// comma-separated replica list (plain URLs or id=url entries); with
// more than one entry the calls go through the client-side cluster
// router, which retries across replicas and follows failover.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"sightrisk/client"
	"sightrisk/internal/benefit"
	"sightrisk/internal/crawler"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/profile"
	"sightrisk/internal/prompt"
	"sightrisk/internal/stats"
	"sightrisk/internal/synthetic"

	"sightrisk"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "pack":
		err = cmdPack(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "crawl":
		err = cmdCrawl(os.Args[2:])
	case "tune":
		err = cmdTune(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "updates":
		err = cmdUpdates(os.Args[2:])
	case "advise":
		err = cmdAdvise(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "sightctl: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sightctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: sightctl <command> [flags]

commands:
  generate   generate a synthetic study and save it as JSON
  info       print dataset statistics
  pack       pack a JSON study into an mmap-able .snap snapshot file
  run        run the risk pipeline over a dataset
  crawl      simulate the Sight crawler on a dataset
  tune       mine pipeline parameters (alpha, beta, theta, weights) from a dataset
  export     write an owner's neighborhood as Graphviz DOT, colored by risk label
  updates    apply a graph/profile delta batch to a sightd dataset, optionally revising an estimate
  advise     evaluate a pending friendship request against the counterfactual graph on a sightd server
  stats      fetch a differentially private statistics release for a dataset from a sightd server
  cluster    print per-replica health for a multi-node sightd cluster
`)
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	out := fs.String("out", "study.json", "output file")
	owners := fs.Int("owners", 8, "number of owners")
	strangers := fs.Int("strangers", 400, "strangers per owner (before jitter)")
	friends := fs.Int("friends", 60, "friends per owner (before jitter)")
	seed := fs.Int64("seed", 1, "generation seed")
	fs.Parse(args)

	cfg := synthetic.DefaultStudyConfig()
	cfg.Owners = *owners
	cfg.Ego.Strangers = *strangers
	cfg.Ego.Friends = *friends
	cfg.Seed = *seed
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return err
	}
	ds := dataset.FromStudy(study, true)
	if err := ds.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d users, %d friendships, %d owners, %d stranger profiles\n",
		*out, ds.Graph.NumNodes(), ds.Graph.NumEdges(), len(ds.Owners), study.TotalStrangers())
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "study.json", "input dataset")
	fs.Parse(args)

	ds, err := dataset.Load(*in)
	if err != nil {
		return err
	}
	deg := ds.Graph.Degrees()
	comps := ds.Graph.ConnectedComponents()
	fmt.Printf("dataset %q\n", ds.Name)
	fmt.Printf("  users        %d\n", ds.Graph.NumNodes())
	fmt.Printf("  friendships  %d\n", ds.Graph.NumEdges())
	fmt.Printf("  degree       min %d / mean %.1f / max %d\n", deg.Min, deg.Mean, deg.Max)
	fmt.Printf("  clustering   %.3f (mean local coefficient)\n", ds.Graph.MeanClusteringCoefficient())
	fmt.Printf("  components   %d (largest %d)\n", len(comps), comps[0])
	fmt.Printf("  profiles     %d\n", len(ds.Profiles))
	fmt.Printf("  owners       %d\n", len(ds.Owners))
	for _, o := range ds.Owners {
		n := len(ds.Graph.Strangers(o.ID))
		fmt.Printf("    owner %-8d strangers %-6d stored labels %-6d confidence %.1f\n",
			o.ID, n, len(o.Labels), o.Confidence)
	}
	return nil
}

func cmdPack(args []string) error {
	fs := flag.NewFlagSet("pack", flag.ExitOnError)
	in := fs.String("in", "study.json", "input JSON dataset")
	out := fs.String("out", "study.snap", "output snapshot file")
	fs.Parse(args)

	ds, err := dataset.Load(*in)
	if err != nil {
		return err
	}
	if err := dataset.PackSnap(ds, *out); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("packed %s -> %s: %d users, %d friendships, %d profiles, %d owners, %d bytes\n",
		*in, *out, ds.Graph.NumNodes(), ds.Graph.NumEdges(), len(ds.Profiles), len(ds.Owners), st.Size())
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	in := fs.String("in", "study.json", "input dataset")
	ownerID := fs.Int64("owner", 0, "owner id (0 = all owners)")
	strategy := fs.String("strategy", "npp", "pool strategy: npp or nsp")
	verbose := fs.Bool("v", false, "print per-stranger labels")
	interactive := fs.Bool("interactive", false, "ask for risk labels on the terminal (the Sight experience) instead of using stored labels")
	out := fs.String("out", "", "also write the risk reports as JSON to this file")
	seed := fs.Int64("seed", 1, "sampling seed")
	checkpoint := fs.String("checkpoint", "", "checkpoint file: resumed from when it exists, rewritten after every labeling round (requires -owner)")
	serverURL := fs.String("server", "", "sightd base URL or comma-separated replica list (URLs or id=url): run through the serving layer instead of in-process; the network travels inline and answers are posted over the wire")
	fs.Parse(args)

	if *checkpoint != "" && *ownerID == 0 {
		return fmt.Errorf("-checkpoint requires a single -owner")
	}
	if *checkpoint != "" && *serverURL != "" {
		return fmt.Errorf("-checkpoint is not supported with -server: sightd checkpoints server-side (restart it with the same -state to resume)")
	}
	ds, err := dataset.Load(*in)
	if err != nil {
		return err
	}
	opts := sight.DefaultOptions()
	opts.Seed = *seed
	switch *strategy {
	case "npp":
		opts.Pooling.Strategy = sight.PoolNPP
	case "nsp":
		opts.Pooling.Strategy = sight.PoolNSP
	default:
		return fmt.Errorf("unknown strategy %q", *strategy)
	}
	net := sight.WrapNetwork(ds.Graph, ds.ProfileStore())

	// Remote mode: the same per-owner loop, but each estimate runs on a
	// sightd server — the dataset's network travels inline and the
	// annotator (stored labels or the terminal) answers the long-polled
	// questions from here. Serving is deterministic, so the reports are
	// identical to the in-process ones.
	var (
		remote  estimateAPI
		payload *client.NetworkPayload
	)
	if *serverURL != "" {
		remote, err = dialServers(*serverURL)
		if err != nil {
			return err
		}
		payload = client.NetworkFrom(net)
	}

	// SIGINT/SIGTERM cancel the run at the next query boundary; the
	// pipeline degrades to a partial report instead of dying mid-round.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	owners := ds.OwnerIDs()
	if *ownerID != 0 {
		owners = []graph.UserID{graph.UserID(*ownerID)}
	}
	store := ds.ProfileStore()
	var reports []*sight.Report
	for _, id := range owners {
		rec, ok := ds.Owner(id)
		if !ok {
			return fmt.Errorf("owner %d not in dataset", id)
		}
		opts.Learning.Confidence = rec.Confidence
		var ann sight.Annotator = dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}
		if *interactive {
			theta := make(benefit.Theta, len(rec.Theta))
			for item, w := range rec.Theta {
				theta[profile.Item(item)] = w
			}
			if len(theta) == 0 {
				theta = nil
			}
			ann = prompt.New(os.Stdin, os.Stdout, ds.Graph.Snapshot(), store, id, theta)
		}
		opts.Checkpointing.Sink, opts.Checkpointing.Resume = nil, nil
		if *checkpoint != "" {
			path := *checkpoint
			if _, statErr := os.Stat(path); statErr == nil {
				cp, err := sight.LoadCheckpoint(path)
				if err != nil {
					return err
				}
				opts.Checkpointing.Resume = cp
				fmt.Printf("resuming owner %d from %s (%d pools checkpointed)\n", id, path, len(cp.Pools))
			}
			// The sink persists after every round, so the file always
			// holds the latest completed state — nothing extra to do on
			// a signal.
			opts.Checkpointing.Sink = func(c *sight.Checkpoint) error {
				return sight.SaveCheckpoint(path, c)
			}
		}
		var rep *sight.Report
		if remote != nil {
			rep, err = runRemote(ctx, remote, payload, id, rec.Confidence, *strategy, *seed, ann)
		} else {
			rep, err = sight.EstimateRisk(ctx, net, id, ann, opts)
		}
		if err != nil {
			return err
		}
		printReport(rep, rec, *verbose)
		if rep.Partial && *checkpoint != "" {
			fmt.Printf("  checkpoint saved to %s — rerun the same command to resume\n", *checkpoint)
		}
		reports = append(reports, rep)
		if ctx.Err() != nil {
			fmt.Println("interrupted — stopping after the current owner")
			break
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d report(s) to %s\n", len(reports), *out)
	}
	return nil
}

// estimateAPI is the slice of the client surface cmdRun needs — both
// *client.Client (one server) and *client.Cluster (a replica set with
// client-side failover) implement it.
type estimateAPI interface {
	Submit(ctx context.Context, req *client.EstimateRequest) (*client.EstimateStatus, error)
	Drive(ctx context.Context, id string, answer client.AnswerFunc) (*client.Report, error)
	Cancel(ctx context.Context, id string) error
	Wait(ctx context.Context, id string) (*client.EstimateStatus, error)
}

// parseServerNodes parses a -server value: one or more comma-separated
// entries, each a plain base URL or an id=url pair. Plain URLs get
// positional ids (node1, node2, ...) — they only matter for the
// client's affinity bookkeeping and the health table.
func parseServerNodes(spec string) ([]client.ClusterNode, error) {
	var nodes []client.ClusterNode
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, url, ok := strings.Cut(entry, "=")
		if !ok || strings.Contains(id, "/") { // a bare URL may hold '=' in a query
			id, url = fmt.Sprintf("node%d", i+1), entry
		}
		nodes = append(nodes, client.ClusterNode{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-server %q names no servers", spec)
	}
	return nodes, nil
}

// dialServers turns a -server value into a client: a plain *Client for
// a single entry, the cluster router for a replica list.
func dialServers(spec string) (estimateAPI, error) {
	nodes, err := parseServerNodes(spec)
	if err != nil {
		return nil, err
	}
	if len(nodes) == 1 {
		return client.New(nodes[0].URL), nil
	}
	return client.NewCluster(nodes)
}

// runRemote runs one owner's estimate through a sightd server: submit
// the inline network, long-poll the owner questions, answer each from
// ann (stored labels or the interactive prompt), and convert the wire
// report back to the library form. A local interrupt cancels the
// server-side job and collects the partial report it degrades to —
// the same graceful shape as the in-process path.
func runRemote(ctx context.Context, c estimateAPI, payload *client.NetworkPayload, owner graph.UserID, confidence float64, strategy string, seed int64, ann sight.Annotator) (*sight.Report, error) {
	st, err := c.Submit(ctx, &client.EstimateRequest{
		Network: payload,
		Owner:   int64(owner),
		Options: &client.OptionsPayload{
			Seed:       &seed,
			Strategy:   &strategy,
			Confidence: &confidence,
		},
	})
	if err != nil {
		return nil, err
	}
	rep, err := c.Drive(ctx, st.ID, func(stranger int64) (int, error) {
		return int(ann.LabelStranger(graph.UserID(stranger))), nil
	})
	if err == nil {
		return rep.Sight(), nil
	}
	if ctx.Err() == nil {
		return nil, err
	}
	cctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := c.Cancel(cctx, st.ID); err != nil {
		return nil, err
	}
	fin, err := c.Wait(cctx, st.ID)
	if err != nil {
		return nil, err
	}
	if fin.Status != client.StatusDone || fin.Report == nil {
		return nil, fmt.Errorf("canceled job %s ended %q: %v", st.ID, fin.Status, fin.Error)
	}
	return fin.Report.Sight(), nil
}

func printReport(rep *sight.Report, rec dataset.OwnerRecord, verbose bool) {
	counts := rep.CountByLabel()
	fmt.Printf("owner %d: %d strangers in %d pools; %d labels requested (%.1f%% of strangers)\n",
		rep.Owner, len(rep.Strangers), rep.Pools, rep.LabelsRequested,
		100*float64(rep.LabelsRequested)/float64(max(1, len(rep.Strangers))))
	fmt.Printf("  labels: not risky %d / risky %d / very risky %d\n",
		counts[sight.NotRisky], counts[sight.Risky], counts[sight.VeryRisky])
	if !math.IsNaN(rep.MeanRounds) {
		fmt.Printf("  mean rounds %.2f, validation exact-match %s\n", rep.MeanRounds, stats.Pct(rep.ExactMatchRate))
	}
	if rep.Partial {
		fallbacks := 0
		for _, sr := range rep.Strangers {
			if sr.Fallback {
				fallbacks++
			}
		}
		fmt.Printf("  PARTIAL RUN (%v): %d strangers carry fallback labels\n", rep.Interrupt, fallbacks)
		pools := make([]string, 0, len(rep.PoolStatus))
		for p := range rep.PoolStatus {
			pools = append(pools, p)
		}
		sort.Strings(pools)
		for _, p := range pools {
			fmt.Printf("    pool %-14s %s\n", p, rep.PoolStatus[p])
		}
	}
	if len(rec.Labels) > 0 {
		agree, total := 0, 0
		for _, sr := range rep.Strangers {
			if want, ok := rec.Labels[sr.User]; ok {
				total++
				if want == sr.Label {
					agree++
				}
			}
		}
		if total > 0 {
			fmt.Printf("  agreement with stored ground truth: %s (%d/%d)\n",
				stats.Pct(float64(agree)/float64(total)), agree, total)
		}
	}
	if verbose {
		for _, sr := range rep.Strangers {
			marker := " "
			switch {
			case sr.OwnerLabeled:
				marker = "*"
			case sr.Fallback:
				marker = "~"
			}
			fmt.Printf("    %s stranger %-8d NS=%.3f pool=%-14s %s\n",
				marker, sr.User, sr.NetworkSimilarity, sr.Pool, sr.Label)
		}
	}
}

func cmdCrawl(args []string) error {
	fs := flag.NewFlagSet("crawl", flag.ExitOnError)
	in := fs.String("in", "study.json", "input dataset")
	ownerID := fs.Int64("owner", 0, "owner id (default: first owner)")
	ticks := fs.Int("ticks", 200, "ticks to simulate")
	every := fs.Int("report", 25, "print a snapshot every N ticks")
	failProb := fs.Float64("failprob", 0, "per-API-call transient failure probability in [0,1]")
	retries := fs.Int("retries", 2, "retry budget per tick for failed API calls")
	fs.Parse(args)

	ds, err := dataset.Load(*in)
	if err != nil {
		return err
	}
	id := graph.UserID(*ownerID)
	if id == 0 {
		ids := ds.OwnerIDs()
		if len(ids) == 0 {
			return fmt.Errorf("dataset has no owners")
		}
		id = ids[0]
	}
	ccfg := crawler.DefaultConfig()
	ccfg.FailureProb = *failProb
	ccfg.RetryBudgetPerTick = *retries
	c, err := crawler.New(ds.Graph, ds.ProfileStore(), id, ccfg)
	if err != nil {
		return err
	}
	fmt.Printf("crawling owner %d (%d true strangers)\n", id, len(ds.Graph.Strangers(id)))
	for t := 1; t <= *ticks; t++ {
		c.Tick()
		if t%*every == 0 || t == *ticks {
			st := c.Stats()
			fmt.Printf("  tick %-5d discovered %-6d pending %-5d api calls %-6d failures %-5d coverage %s\n",
				st.Ticks, st.Discovered, st.Pending, st.APICalls, st.Failures, stats.Pct(st.Coverage))
		}
	}
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	in := fs.String("in", "study.json", "input dataset")
	ownerID := fs.Int64("owner", 0, "owner id (default: first owner)")
	out := fs.String("out", "neighborhood.dot", "output DOT file")
	maxNodes := fs.Int("max", 400, "node cap for the export (0 = no cap)")
	fs.Parse(args)

	ds, err := dataset.Load(*in)
	if err != nil {
		return err
	}
	id := graph.UserID(*ownerID)
	if id == 0 {
		ids := ds.OwnerIDs()
		if len(ids) == 0 {
			return fmt.Errorf("dataset has no owners")
		}
		id = ids[0]
	}
	rec, ok := ds.Owner(id)
	if !ok {
		return fmt.Errorf("owner %d not in dataset", id)
	}
	// Color nodes by stored risk label; the owner is gold, friends grey.
	highlight := map[graph.UserID]string{id: "gold"}
	for _, f := range ds.Graph.Friends(id) {
		highlight[f] = "lightgrey"
	}
	colors := map[label.Label]string{
		label.NotRisky:  "palegreen",
		label.Risky:     "orange",
		label.VeryRisky: "tomato",
	}
	for s, l := range rec.Labels {
		if c, ok := colors[l]; ok {
			highlight[s] = c
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	opts := graph.DOTOptions{
		Name:      fmt.Sprintf("owner-%d", id),
		Highlight: highlight,
		Label:     map[graph.UserID]string{id: "owner"},
		MaxNodes:  *maxNodes,
	}
	if err := ds.Graph.WriteDOT(f, opts); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (owner gold, friends grey, strangers colored by stored risk label)\n", *out)
	return nil
}

func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	in := fs.String("in", "study.json", "input dataset")
	ownerID := fs.Int64("owner", 0, "owner id (default: first owner)")
	fs.Parse(args)

	ds, err := dataset.Load(*in)
	if err != nil {
		return err
	}
	id := graph.UserID(*ownerID)
	if id == 0 {
		ids := ds.OwnerIDs()
		if len(ids) == 0 {
			return fmt.Errorf("dataset has no owners")
		}
		id = ids[0]
	}
	rec, ok := ds.Owner(id)
	if !ok {
		return fmt.Errorf("owner %d not in dataset", id)
	}
	net := sight.WrapNetwork(ds.Graph, ds.ProfileStore())
	prior := make(map[sight.UserID]sight.Label, len(rec.Labels))
	for u, l := range rec.Labels {
		prior[u] = l
	}
	tuned, err := sight.TuneParameters(net, id, prior)
	if err != nil {
		return err
	}
	fmt.Printf("mined parameters for owner %d (paper defaults: alpha=10, beta=0.4):\n", id)
	fmt.Printf("  alpha  %d\n", tuned.Alpha)
	fmt.Printf("  beta   %.1f\n", tuned.Beta)
	if len(tuned.SqueezerWeights) > 0 {
		fmt.Println("  squeezer weights (IGR-mined from stored labels):")
		for _, a := range []string{sight.AttrGender, sight.AttrLocale, sight.AttrLastName} {
			fmt.Printf("    %-10s %.4f\n", a, tuned.SqueezerWeights[a])
		}
	}
	fmt.Println("  system-suggested theta (scarcity-priced):")
	items := make([]string, 0, len(tuned.Theta))
	for item := range tuned.Theta {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return tuned.Theta[items[i]] > tuned.Theta[items[j]] })
	for _, item := range items {
		fmt.Printf("    %-10s %.4f\n", item, tuned.Theta[item])
	}
	return nil
}

func cmdUpdates(args []string) error {
	fs := flag.NewFlagSet("updates", flag.ExitOnError)
	serverURL := fs.String("server", "", "sightd base URL (or replica list; the first entry is dialed — the server forwards to the ring owner)")
	dsName := fs.String("dataset", "", "dataset name on the server (required unless -revise)")
	ownerID := fs.Int64("owner", 0, "owner id the batch routes by in cluster mode")
	file := fs.String("file", "", "JSON file holding the update array (default: stdin)")
	reviseID := fs.String("revise", "", "finished estimate id: apply the batch through its revision endpoint and stream the report deltas")
	verbose := fs.Bool("v", false, "print per-stranger entries from the delta stream")
	fs.Parse(args)

	if *serverURL == "" {
		return fmt.Errorf("updates needs -server")
	}
	nodes, err := parseServerNodes(*serverURL)
	if err != nil {
		return err
	}
	c := client.New(nodes[0].URL)

	var updates []client.Update
	in := os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	dec := json.NewDecoder(in)
	if err := dec.Decode(&updates); err != nil {
		if *file == "" && errors.Is(err, io.EOF) && *reviseID != "" {
			updates = nil // pure revision: no batch on stdin is fine
		} else {
			return fmt.Errorf("decode updates: %w", err)
		}
	}
	if len(updates) == 0 && *reviseID == "" {
		return fmt.Errorf("no updates to apply (and no -revise)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Without -revise: plain batch application.
	if *reviseID == "" {
		if *dsName == "" {
			return fmt.Errorf("updates needs -dataset")
		}
		resp, err := c.Updates(ctx, &client.UpdatesRequest{Dataset: *dsName, Owner: *ownerID, Updates: updates})
		if err != nil {
			return err
		}
		fmt.Printf("dataset %s: applied %d updates", resp.Dataset, resp.Applied)
		if resp.Node != "" {
			fmt.Printf(" on node %s", resp.Node)
		}
		fmt.Println()
		if len(resp.DirtyOwners) > 0 {
			fmt.Printf("  dirty owners (revise their estimates): %v\n", resp.DirtyOwners)
		} else {
			fmt.Println("  no owner's 2-hop view was reached; standing estimates remain exact")
		}
		return nil
	}

	// With -revise: the batch rides the revision request (applied
	// atomically before the re-estimate), and the per-pool deltas
	// stream back as they land.
	st, err := c.Revise(ctx, *reviseID, &client.ReviseRequest{Updates: updates})
	if err != nil {
		return err
	}
	fmt.Printf("revising %s as %s (%d updates)\n", *reviseID, st.ID, len(updates))
	reused, recomputed := 0, 0
	final, err := c.StreamDeltas(ctx, st.ID, func(d client.PoolDelta) error {
		how := "recomputed"
		if d.Reused {
			how = "reused"
			reused++
		} else {
			recomputed++
		}
		fmt.Printf("  pool %-14s (%d/%d) %-10s %s, %d strangers\n",
			d.Pool, d.Index+1, d.Total, d.Status, how, len(d.Strangers))
		if *verbose {
			for _, sr := range d.Strangers {
				fmt.Printf("      stranger %-8d NS=%.3f label=%d\n", sr.User, sr.NetworkSimilarity, sr.Label)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if final.JobStatus != client.StatusDone || final.Report == nil {
		if final.Error != nil {
			return fmt.Errorf("revision %s ended %q: %s", st.ID, final.JobStatus, final.Error.Message)
		}
		return fmt.Errorf("revision %s ended %q", st.ID, final.JobStatus)
	}
	fmt.Printf("revision done: %d pools reused, %d recomputed\n", reused, recomputed)
	printReport(final.Report.Sight(), dataset.OwnerRecord{}, *verbose)
	return nil
}

// adviseAPI is the slice of the client surface cmdAdvise needs — both
// *client.Client and *client.Cluster implement it.
type adviseAPI interface {
	Advise(ctx context.Context, req *client.AdviseRequest) (*client.AdviseResponse, error)
}

func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	serverURL := fs.String("server", "", "sightd base URL or comma-separated replica list (URLs or id=url); the request routes to the replica owning -owner")
	dsName := fs.String("dataset", "", "dataset name on the server (required; must be mutable)")
	ownerID := fs.Int64("owner", 0, "owner who received the friendship request (required)")
	candID := fs.Int64("candidate", 0, "user asking to become a friend (required)")
	seed := fs.Int64("seed", 1, "sampling seed; match the owner's standing estimate so the server can reuse it")
	verbose := fs.Bool("v", false, "print the per-item exposure table")
	fs.Parse(args)

	if *serverURL == "" || *dsName == "" || *ownerID == 0 || *candID == 0 {
		return fmt.Errorf("advise needs -server, -dataset, -owner and -candidate")
	}
	api, err := dialServers(*serverURL)
	if err != nil {
		return err
	}
	adv, ok := api.(adviseAPI)
	if !ok {
		return fmt.Errorf("internal: %T does not implement advise", api)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	resp, err := adv.Advise(ctx, &client.AdviseRequest{
		Dataset:   *dsName,
		Owner:     *ownerID,
		Candidate: *candID,
		Options:   &client.OptionsPayload{Seed: seed},
	})
	if err != nil {
		return err
	}
	fmt.Printf("owner %d, request from %d: %s\n", resp.Owner, resp.Candidate, strings.ToUpper(resp.Verdict))
	fmt.Printf("  %s\n", resp.Reason)
	fmt.Printf("  candidate: label=%d NS=%.3f\n", resp.Label, resp.NetworkSimilarity)
	fmt.Printf("  stranger view if accepted: +%d new, -%d leave\n", resp.NewStrangers, resp.LostStrangers)
	fmt.Printf("  risky reach %d -> %d, very risky %d -> %d\n",
		resp.RiskyBefore, resp.RiskyAfter, resp.VeryRiskyBefore, resp.VeryRiskyAfter)
	if *verbose {
		fmt.Println("  per-item exposure (policy-admitted strangers):")
		for _, it := range resp.Items {
			access := ""
			if it.GainsAccess {
				access = "  candidate gains access"
			}
			fmt.Printf("    %-10s max_label=%d audience %d -> %d risky %d -> %d%s\n",
				it.Item, it.MaxLabel, it.AudienceBefore, it.AudienceAfter, it.RiskyBefore, it.RiskyAfter, access)
		}
	}
	return nil
}

// statsAPI is the slice of the client surface cmdStats needs — both
// *client.Client and *client.Cluster implement it.
type statsAPI interface {
	Stats(ctx context.Context, req *client.StatsRequest) (*client.StatsResponse, error)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	serverURL := fs.String("server", "", "sightd base URL or comma-separated replica list (URLs or id=url); the request routes to the replica owning the dataset's ε ledger")
	dsName := fs.String("dataset", "", "dataset name on the server (required)")
	tenant := fs.String("tenant", "", "tenant the release is charged to")
	epoch := fs.Uint64("epoch", 0, "noise epoch: repeating an epoch re-serves identical numbers for free, a new epoch buys a fresh draw")
	epsilon := fs.Float64("epsilon", 0, "per-mechanism privacy budget ε (0 = server default of 1); one release charges 6ε")
	noise := fs.String("noise", "", "noise mode: visibility_aware (default) or all_edge")
	fs.Parse(args)

	if *serverURL == "" || *dsName == "" {
		return fmt.Errorf("stats needs -server and -dataset")
	}
	api, err := dialServers(*serverURL)
	if err != nil {
		return err
	}
	st, ok := api.(statsAPI)
	if !ok {
		return fmt.Errorf("internal: %T does not implement stats", api)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	resp, err := st.Stats(ctx, &client.StatsRequest{
		Dataset: *dsName,
		Tenant:  *tenant,
		Epoch:   *epoch,
		Epsilon: *epsilon,
		Noise:   *noise,
	})
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s generation %d: %s release at epsilon=%g (epoch %d, tenant %q)\n",
		resp.Dataset, resp.Generation, resp.Noise, resp.Epsilon, resp.Epoch, resp.Tenant)
	fmt.Printf("  population   %d users, %d with profiles, %d public (%d public friendships exact)\n",
		resp.Nodes, resp.Profiles, resp.PublicUsers, resp.PublicEdges)
	fmt.Printf("  sensitivity  degree cap %d, triangle cap %d\n", resp.DegreeCap, resp.TriangleCap)
	printStatsEstimate := func(name string, e client.StatsEstimate) {
		fmt.Printf("  %-12s %14.1f  (se %.1f, %d users noised)\n", name, e.Value, e.SE, e.NoisedUsers)
	}
	printStatsEstimate("friendships", resp.EdgeCount)
	printStatsEstimate("triangles", resp.Triangles)
	printStatsEstimate("2-stars", resp.TwoStars)
	printStatsEstimate("3-stars", resp.ThreeStars)
	fmt.Printf("  degree histogram (se %.1f per bucket):\n", resp.DegreeHistSE)
	for _, b := range resp.DegreeHist {
		fmt.Printf("    %-8s %12.1f\n", b.Label, b.Count)
	}
	fmt.Println("  visibility rates (share of profiled users exposing each item):")
	for _, ir := range resp.Visibility {
		fmt.Printf("    %-10s %s  (se %.3f)\n", ir.Item, stats.Pct(ir.Rate), ir.SE)
	}
	return nil
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	servers := fs.String("server", "", "comma-separated replica list (URLs or id=url entries)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-probe timeout")
	fs.Parse(args)

	if *servers == "" {
		return fmt.Errorf("cluster needs -server")
	}
	nodes, err := parseServerNodes(*servers)
	if err != nil {
		return err
	}
	cl, err := client.NewCluster(nodes)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	health := cl.Health(ctx)

	t := stats.NewTable("Cluster health", "node", "url", "status", "ready", "ring", "shards", "jobs", "peers")
	for _, n := range nodes {
		h := health[n.ID]
		if h == nil {
			t.AddRow(n.ID, n.URL, "unreachable", "-", "-", "-", "-", "-")
			continue
		}
		peers := make([]string, 0, len(h.Peers))
		for id, state := range h.Peers {
			peers = append(peers, id+":"+state)
		}
		sort.Strings(peers)
		jobs := make([]string, 0, len(h.Jobs))
		for status, count := range h.Jobs {
			if count > 0 {
				jobs = append(jobs, fmt.Sprintf("%d %s", count, status))
			}
		}
		sort.Strings(jobs)
		if len(jobs) == 0 {
			jobs = []string{"none"}
		}
		t.AddRow(n.ID, n.URL, h.Status, fmt.Sprintf("%v", h.Ready),
			fmt.Sprintf("v%d", h.RingVersion),
			fmt.Sprintf("%d/%d", h.ShardsOwned, h.ShardsTotal),
			strings.Join(jobs, ", "),
			strings.Join(peers, " "))
	}
	fmt.Println(t)
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
