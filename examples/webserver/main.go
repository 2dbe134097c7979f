// Webserver: deploying Twig against HTTP-serving workloads and checking
// that a profile from one traffic pattern transfers to others.
//
// This is the paper's deployability argument (§4.2, Fig. 20): a data
// center can profile production traffic once, rewrite the binary, and
// keep the benefit as traffic shifts. The example optimizes the two
// Finagle services and Tomcat with a profile from input #0, then
// measures them under inputs #1-#3.
//
//	go run ./examples/webserver
package main

import (
	"fmt"
	"log"

	"twig"
)

func main() {
	cfg := twig.DefaultConfig()
	cfg.Instructions = 400_000

	for _, app := range []twig.App{twig.FinagleHTTP, twig.FinagleChirper, twig.Tomcat} {
		fmt.Printf("== %s (profiled on traffic mix #0) ==\n", app)
		sys, err := twig.NewSystem(app, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %12s %12s %12s %12s\n", "traffic", "base IPC", "twig IPC", "speedup", "coverage")
		for input := 0; input <= 3; input++ {
			base, err := sys.Run("baseline", input)
			if err != nil {
				log.Fatal(err)
			}
			opt, err := sys.Run("twig", input)
			if err != nil {
				log.Fatal(err)
			}
			label := fmt.Sprintf("mix #%d", input)
			if input == 0 {
				label += " *"
			}
			fmt.Printf("%-10s %12.3f %12.3f %+11.1f%% %11.1f%%\n",
				label, base.IPC, opt.IPC, twig.Speedup(base, opt), twig.Coverage(base, opt))
		}
		fmt.Println("   (* = the traffic mix the profile was collected on)")
		fmt.Println()
	}
}
