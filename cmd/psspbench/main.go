// Command psspbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	psspbench -all                       # every experiment
//	psspbench -table 1|2|3|4|5           # one table
//	psspbench -table 5 -sweep            # Table V plus the LV ablation sweep
//	psspbench -figure 5                  # Figure 5
//	psspbench -experiment effectiveness  # §VI-C attack experiment
//	psspbench -experiment compat         # §VI-C compatibility experiment
//	psspbench -experiment globalbuffer   # Figure 6 discussion variant
//	psspbench -experiment underload      # tail latency under closed-loop load
//	psspbench -all -json                 # machine-readable: JSON array of tables
//
// Scaling flags: -seed, -requests (web), -queries (db), -budget (attack
// trials per replication), -attack-reps (campaign replications per security
// cell), -workers (campaign shards; wall-clock only, results are
// worker-count invariant), -load-requests/-load-clients (under-load
// experiment).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/harness"
	"repro/pssp"
)

func main() {
	var (
		table        = flag.Int("table", 0, "regenerate Table N (1-5)")
		figure       = flag.Int("figure", 0, "regenerate Figure N (5)")
		experiment   = flag.String("experiment", "", "effectiveness | compat | globalbuffer | entropy | latency | underload | fuzzdiscovery")
		all          = flag.Bool("all", false, "run every experiment")
		sweep        = flag.Bool("sweep", false, "with -table 5: sweep P-SSP-LV over 1..8 criticals")
		jsonOut      = flag.Bool("json", false, "emit the selected experiments as one JSON array")
		seed         = flag.Uint64("seed", 2018, "experiment seed")
		requests     = flag.Int("requests", 64, "web-server requests (Table III)")
		queries      = flag.Int("queries", 16, "database queries (Table IV)")
		budget       = flag.Int("budget", 4096, "attack trial budget per replication")
		reps         = flag.Int("attack-reps", 2, "attack-campaign replications per security cell")
		workers      = flag.Int("workers", 0, "campaign worker shards (0 = GOMAXPROCS; results are worker-count invariant)")
		loadRequests = flag.Int("load-requests", 96, "under-load experiment request budget")
		loadClients  = flag.Int("load-clients", 8, "under-load experiment closed-loop clients")
		storeDir     = flag.String("store", "", "content-addressed artifact store directory (results are store-hit-invariant)")
	)
	flag.Parse()

	cfg := harness.Config{
		Seed:         *seed,
		WebRequests:  *requests,
		DBQueries:    *queries,
		AttackBudget: *budget,
		AttackReps:   *reps,
		Workers:      *workers,
		LoadRequests: *loadRequests,
		LoadClients:  *loadClients,
	}
	if err := checkCounts(cfg); err != nil {
		cliutil.Fail("psspbench", err)
	}
	if *storeDir != "" {
		var err error
		if cfg.Store, err = pssp.OpenStore(*storeDir); err != nil {
			cliutil.Fail("psspbench", err)
		}
	}

	type driver struct {
		name string
		run  func(harness.Config) (*harness.Table, error)
	}
	drivers := map[string]driver{
		"table1":        {"Table I", harness.Table1},
		"table2":        {"Table II", harness.Table2},
		"table3":        {"Table III", harness.Table3},
		"table4":        {"Table IV", harness.Table4},
		"table5":        {"Table V", func(c harness.Config) (*harness.Table, error) { return harness.Table5(c, *sweep) }},
		"figure5":       {"Figure 5", harness.Figure5},
		"effectiveness": {"Effectiveness", harness.Effectiveness},
		"compat":        {"Compatibility", harness.Compatibility},
		"globalbuffer":  {"Global buffer", harness.GlobalBuffer},
		"entropy":       {"Entropy ablation", harness.EntropyAblation},
		"latency":       {"Detection latency", harness.DetectionLatency},
		"underload":     {"Overhead under load", harness.UnderLoad},
		"fuzzdiscovery": {"Fuzz discovery", harness.FuzzDiscovery},
	}

	var selected []string
	switch {
	case *all:
		selected = []string{
			"table1", "table2", "table3", "table4", "table5",
			"figure5", "effectiveness", "compat", "globalbuffer",
			"entropy", "latency", "underload", "fuzzdiscovery",
		}
	case *table >= 1 && *table <= 5:
		selected = []string{fmt.Sprintf("table%d", *table)}
	case *figure == 5:
		selected = []string{"figure5"}
	case *experiment != "":
		if _, ok := drivers[*experiment]; !ok {
			// List every valid name so the fix is discoverable from the
			// message alone, mirroring core.ParseScheme's error.
			names := make([]string, 0, len(drivers))
			for name := range drivers {
				names = append(names, name)
			}
			sort.Strings(names)
			fmt.Fprintf(os.Stderr, "psspbench: unknown experiment %q (have %s)\n",
				*experiment, strings.Join(names, ", "))
			os.Exit(2)
		}
		selected = []string{*experiment}
	default:
		flag.Usage()
		os.Exit(2)
	}

	var tables []*harness.Table
	for _, name := range selected {
		d := drivers[name]
		t, err := d.run(cfg)
		if err != nil {
			cliutil.Fail("psspbench", fmt.Errorf("%s: %w", d.name, err))
		}
		if *jsonOut {
			tables = append(tables, t)
			continue
		}
		fmt.Println(t.Render())
	}
	if *jsonOut {
		if err := cliutil.EmitJSON(os.Stdout, tables); err != nil {
			cliutil.Fail("psspbench", err)
		}
	}
}

// checkCounts rejects scaling flags no experiment can honour. The harness
// defaults only a zero count, so a negative one would run a single request
// or query yet be printed as given in the tables' notes.
func checkCounts(cfg harness.Config) error {
	for _, c := range []struct {
		flag string
		n    int
	}{
		{"requests", cfg.WebRequests},
		{"queries", cfg.DBQueries},
		{"budget", cfg.AttackBudget},
		{"attack-reps", cfg.AttackReps},
		{"load-requests", cfg.LoadRequests},
		{"load-clients", cfg.LoadClients},
	} {
		if c.n <= 0 {
			return fmt.Errorf("-%s must be positive, got %d", c.flag, c.n)
		}
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("-workers must be 0 (GOMAXPROCS) or positive, got %d", cfg.Workers)
	}
	return nil
}
