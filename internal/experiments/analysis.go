package experiments

import (
	"fmt"

	"twig/internal/metrics"
	"twig/internal/profile"
	"twig/internal/program"
	"twig/internal/twigopt"
)

func init() {
	register(Experiment{
		ID:    "fig13",
		Title: "Worked example of injection-site selection (conditional probability)",
		Paper: "blocks B,C,D,E: P = 0.25, 0.5, 0.33, 0.66; C covers misses 1,4,5,6 and E covers 2,3",
		Run: func(c *Context) error {
			p, prof, blocks := fig13Scenario()
			an, err := twigopt.Analyze(p, prof, fig13Config())
			if err != nil {
				return err
			}
			t := metrics.NewTable("block", "executions", "timely misses at A", "P(miss at A | block)")
			// Recompute the table the paper shows from the profile.
			counts := map[int32]int64{}
			for i, s := range prof.Samples {
				seen := map[int32]bool{}
				for _, rec := range prof.Window(i) {
					if s.MissCycle-rec.Cycle < fig13Config().PrefetchDistance {
						continue
					}
					for _, b := range []int32{rec.ToBlock, rec.FromBlock} {
						if !seen[b] {
							seen[b] = true
							counts[b]++
						}
					}
				}
			}
			for _, b := range blocks {
				if counts[b.id] == 0 {
					continue
				}
				t.Row(b.name, prof.BlockExecs[b.id], counts[b.id],
					float64(counts[b.id])/float64(prof.BlockExecs[b.id]))
			}
			if _, err := fmt.Fprint(c.Out, t.String()); err != nil {
				return err
			}
			for _, pl := range an.Placements {
				name := "?"
				for _, b := range blocks {
					if b.id == pl.Block {
						name = b.name
					}
				}
				fmt.Fprintf(c.Out, "selected injection site: block %s (P=%.2f)\n", name, pl.Probability)
			}
			return nil
		},
	})

	register(Experiment{
		ID:    "fig14",
		Title: "CDF of prefetch-to-branch offsets by required signed bits",
		Paper: ">80% of covered misses fit a 12-bit offset for all applications",
		Run:   func(c *Context) error { return c.offsetCDF(true) },
	})

	register(Experiment{
		ID:    "fig15",
		Title: "CDF of branch-to-target offsets by required signed bits",
		Paper: ">80% fit 12 bits for most applications; verilator needs more",
		Run:   func(c *Context) error { return c.offsetCDF(false) },
	})
}

// offsetCDF renders Fig. 14 (branch==true: prefetch-to-branch) or
// Fig. 15 (branch-to-target) as per-app CDF values at selected widths.
func (c *Context) offsetCDF(branch bool) error {
	widths := []int{8, 10, 12, 14, 16, 20, 24, 32}
	header := []string{"app"}
	for _, w := range widths {
		header = append(header, fmt.Sprintf("<=%db %%", w))
	}
	t := metrics.NewTable(header...)
	for _, app := range c.Apps {
		a, err := c.Artifacts(app, 0)
		if err != nil {
			return err
		}
		hist := a.Analysis.TargetOffsetBits[:]
		if branch {
			hist = a.Analysis.BranchOffsetBits[:]
		}
		cdf := metrics.CDF(hist)
		row := []any{string(app)}
		for _, w := range widths {
			row = append(row, cdf[w])
		}
		t.Row(row...)
	}
	_, err := fmt.Fprint(c.Out, t.String())
	return err
}

// fig13Scenario builds a miniature program and hand-crafted profile
// reproducing the paper's Fig. 13 example: BTB misses at branch A with
// predecessor basic blocks B(16 executions, 4 timely), C(8, 4),
// D(6, 2), E(3, 2).
func fig13Scenario() (*program.Program, *profile.Profile, []namedBlock) {
	// One function, six blocks: entry, B, C, D, E, and the block holding
	// branch A. Structure is irrelevant beyond having valid blocks.
	b := program.NewBuilder(0x400000)
	f := b.NewFunc()
	for i := 0; i < 6; i++ {
		blk := f.NewBlock()
		for j := 0; j < 4; j++ {
			blk.Regular(4)
		}
		if i == 5 {
			blk.Jump(0) // branch A: block 5's terminator
		} else {
			blk.Cond(int32(i+1), 128, false)
		}
	}
	p, err := b.Link()
	if err != nil {
		panic(err)
	}
	blocks := []namedBlock{
		{"entry", 0}, {"B", 1}, {"C", 2}, {"D", 3}, {"E", 4}, {"A-block", 5},
	}
	branchA := p.Blocks[5].Last // the jump terminating block 5

	prof := &profile.Profile{
		BlockExecs: make([]int64, len(p.Blocks)),
		MissCounts: map[int32]int64{p.Instrs[branchA].ID: 6},
	}
	// Paper's execution counts.
	prof.BlockExecs[1] = 16 // B
	prof.BlockExecs[2] = 8  // C
	prof.BlockExecs[3] = 6  // D
	prof.BlockExecs[4] = 3  // E
	prof.BlockExecs[5] = 6

	// Six misses at A; the window of each sample lists the predecessor
	// blocks that can timely cover it (>= 20 cycles before the miss).
	// Misses 1,4,5,6 are covered by B and C; misses 2,3 by D and E —
	// matching the paper's counts (B:4, C:4, D:2, E:2).
	mkRec := func(blk int32, cyclesBefore float64, missCycle float64) profile.Record {
		return profile.Record{FromBlock: blk, ToBlock: blk, Cycle: missCycle - cyclesBefore}
	}
	missCycle := 1000.0
	add := func(blks ...int32) {
		var window []profile.Record
		for _, blk := range blks {
			window = append(window, mkRec(blk, 25, missCycle))
		}
		prof.AddSample(p.Instrs[branchA].ID, missCycle, window)
		missCycle += 100
	}
	add(1, 2) // miss 1: B, C
	add(3, 4) // miss 2: D, E
	add(3, 4) // miss 3: D, E
	add(1, 2) // miss 4: B, C
	add(1, 2) // miss 5
	add(1, 2) // miss 6
	prof.Instructions = 1000
	return p, prof, blocks
}

type namedBlock struct {
	name string
	id   int32
}

func fig13Config() twigopt.Config {
	cfg := twigopt.DefaultConfig()
	cfg.MinMissCount = 1
	cfg.MaxSitesPerBranch = 2
	return cfg
}
