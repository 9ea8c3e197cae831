package cli

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/closet"
	"repro/internal/eval"
)

// closetCmd clusters metagenomic reads (Chapter 4): sketch-based edge
// construction followed by incremental γ-quasi-clique enumeration over a
// decreasing similarity-threshold ladder, executed on the in-process
// MapReduce engine. With -labels (a TSV from ngsim -mode meta), the
// Adjusted Rand Index against the ground-truth species partition is
// reported per threshold.
func closetCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("closet")
	var (
		in         = fs.String("in", "", "input FASTQ (required)")
		out        = fs.String("out", "", "output cluster TSV (required)")
		thresholds = fs.String("thresholds", "0.95,0.92,0.90", "decreasing similarity ladder")
		gamma      = fs.Float64("gamma", 2.0/3.0, "quasi-clique density γ")
		cmin       = fs.Float64("cmin", 0.60, "candidate similarity cutoff Cmin")
		nodes      = fs.Int("nodes", 32, "simulated cluster nodes")
		workers    = fs.Int("workers", 0, "parallel workers, mapped onto the MapReduce node count (0 = keep -nodes)")
		labelsPath = fs.String("labels", "", "optional taxonomy TSV for ARI evaluation")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return usagef(fs, "-in and -out are required")
	}
	reads, err := readAllFastq(*in)
	if err != nil {
		return err
	}
	meanLen := 0
	for _, r := range reads {
		meanLen += len(r.Seq)
	}
	if len(reads) > 0 {
		meanLen /= len(reads)
	}
	cfg := closet.DefaultConfig(meanLen)
	cfg.Gamma = *gamma
	cfg.Cmin = *cmin
	cfg.Nodes = *nodes
	// -workers is the cross-CLI parallelism knob: here it sizes the
	// simulated cluster (mapreduce.Config.Nodes bounds both the shuffle
	// partitions and the concurrent map/reduce workers).
	if *workers > 0 {
		cfg.Nodes = *workers
	}
	cfg.Thresholds = nil
	for _, s := range strings.Split(*thresholds, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("bad threshold %q: %w", s, err)
		}
		cfg.Thresholds = append(cfg.Thresholds, v)
	}
	start := time.Now()
	res, err := closet.Run(reads, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "edges: predicted %d, unique %d, confirmed %d\n", res.PredictedEdges, res.UniqueEdges, res.ConfirmedEdges)
	for _, st := range res.Timings {
		fmt.Fprintf(stdout, "stage %-16s %v\n", st.Stage, st.Duration.Round(time.Millisecond))
	}

	var truth []int
	if *labelsPath != "" {
		truth, err = readLabels(*labelsPath, len(reads))
		if err != nil {
			return err
		}
	}
	// The TSV is published only once every threshold's rows are out and
	// every write has succeeded.
	writeTSV := func(w io.Writer) error {
		if _, err := fmt.Fprintln(w, "threshold\tcluster\tread"); err != nil {
			return err
		}
		for _, tr := range res.ByThreshold {
			fmt.Fprintf(stdout, "t=%.2f: %d edges, %d clusters processed, %d resulting clusters",
				tr.Threshold, tr.EdgesUsed, tr.ClustersProcessed, len(tr.Clusters))
			if truth != nil {
				labels := closet.PartitionLabels(tr.Clusters, len(reads))
				ari, err := eval.ARI(truth, labels)
				if err != nil {
					return err
				}
				fmt.Fprintf(stdout, ", ARI=%.3f", ari)
			}
			if !tr.Converged {
				fmt.Fprint(stdout, " (merge bound reached)")
			}
			fmt.Fprintln(stdout)
			for ci, c := range tr.Clusters {
				for _, v := range c.Verts {
					if _, err := fmt.Fprintf(w, "%.2f\t%d\t%s\n", tr.Threshold, ci, reads[v].ID); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	if err := writeOutput(*out, writeTSV); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "total %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// readLabels parses the ngsim label TSV, matching rows to read order.
func readLabels(path string, n int) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	var out []int
	first := true
	for s.Scan() {
		line := strings.TrimSpace(s.Text())
		if line == "" {
			continue
		}
		if first {
			first = false
			if strings.HasPrefix(line, "read\t") {
				continue
			}
		}
		fields := strings.Split(line, "\t")
		if len(fields) < 4 {
			return nil, fmt.Errorf("labels: bad line %q", line)
		}
		sp, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("labels: bad species id in %q", line)
		}
		out = append(out, sp)
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	if len(out) != n {
		return nil, fmt.Errorf("labels: %d rows but %d reads", len(out), n)
	}
	return out, nil
}
