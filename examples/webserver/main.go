// Webserver: the Figure 9 experiment as a demo — a simulated server
// restart, showing JITed code growth and RPS recovery through the
// profiling → global trigger → optimized-publish lifecycle.
package main

import (
	"fmt"
	"os"

	"repro/internal/perflab"
)

func main() {
	cfg := perflab.DefaultServerConfig()
	cfg.Minutes = 24
	cfg.CyclesPerMinute = 1_500_000
	fmt.Println("simulating a server restart (events: A=profiling done, C=optimized code published, D=code cache full)")
	res, err := perflab.Simulate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	perflab.ReportTimeline(os.Stdout, res)

	// A tiny ASCII plot of the RPS curve.
	fmt.Println("\nRPS relative to steady state:")
	for _, s := range res.Samples {
		n := int(s.RPSPct / 4)
		if n > 50 {
			n = 50
		}
		bar := ""
		for i := 0; i < n; i++ {
			bar += "#"
		}
		fmt.Printf("%3.0fmin |%-50s| %5.1f%% %s\n", s.Minute, bar, s.RPSPct, s.Event)
	}
}
