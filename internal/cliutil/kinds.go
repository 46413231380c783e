package cliutil

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/daemon"
	"repro/internal/fabric"
	"repro/pssp"
)

// The scenario flags of the three workload kinds, declared once.
// psspattack, psspload and psspfuzz register them on their own command
// lines, and psspctl parses its kind subcommand with the same set, so a
// flag has one name, type and default wherever it is typed. Each set
// returns a builder that, after parsing, yields the job in the fabric's
// submit shape: the kind's daemon wire params (plus, for fuzz, the corpus
// directory and until-stall rounds), with the scheme canonicalized.

// kinds are the flag sets by workload kind name, as psspctl's subcommands
// and the fabric's SubmitParams.Kind spell them.
var kinds = map[string]func(*flag.FlagSet) func() (fabric.SubmitParams, error){
	"campaign": AttackFlags,
	"loadtest": LoadFlags,
	"fuzz":     FuzzFlags,
}

// kindNames lists kinds in usage order.
const kindNames = "campaign, loadtest, fuzz"

// ParseJob parses a kind subcommand: args[0] names the kind, the rest are
// that kind's flags. A malformed flag exits like a top-level flag.Parse.
func ParseJob(args []string) (fabric.SubmitParams, error) {
	if len(args) == 0 {
		return fabric.SubmitParams{}, fmt.Errorf("missing workload kind (want %s)", kindNames)
	}
	register, ok := kinds[args[0]]
	if !ok {
		return fabric.SubmitParams{}, fmt.Errorf("unknown workload kind %q (want %s)", args[0], kindNames)
	}
	fs := flag.NewFlagSet("psspctl "+args[0], flag.ExitOnError)
	build := register(fs)
	fs.Parse(args[1:])
	if fs.NArg() > 0 {
		return fabric.SubmitParams{}, fmt.Errorf("%s: unexpected argument %q", args[0], fs.Arg(0))
	}
	return build()
}

// canonicalScheme rewrites *name to the scheme's canonical spelling.
func canonicalScheme(name *string) error {
	s, err := pssp.ParseScheme(*name)
	if err == nil {
		*name = s.String()
	}
	return err
}

func strategyHelp() string {
	var b strings.Builder
	b.WriteString("adversary strategy:")
	for _, s := range pssp.AttackStrategies() {
		fmt.Fprintf(&b, "\n    %-12s %s", s.Name, s.Description)
	}
	return b.String()
}

// AttackFlags registers psspattack's campaign flags on fs.
func AttackFlags(fs *flag.FlagSet) func() (fabric.SubmitParams, error) {
	var p daemon.AttackParams
	fs.StringVar(&p.Target, "target", "nginx-vuln", "nginx-vuln | ali-vuln")
	fs.StringVar(&p.Scheme, "scheme", "ssp", "protection scheme of the victim")
	fs.StringVar(&p.Strategy, "strategy", "byte-by-byte", strategyHelp())
	fs.IntVar(&p.Budget, "budget", 4096, "maximum trials per replication")
	fs.IntVar(&p.Repeats, "repeats", 1, "independent campaign replications")
	fs.IntVar(&p.Workers, "workers", 0, "concurrent oracle shards (0 = GOMAXPROCS)")
	fs.Uint64Var(&p.Seed, "seed", 1, "simulation seed")
	return func() (fabric.SubmitParams, error) {
		a := p
		err := canonicalScheme(&a.Scheme)
		return fabric.SubmitParams{Kind: "campaign", Attack: &a}, err
	}
}

// LoadFlags registers psspload's workload flags on fs.
func LoadFlags(fs *flag.FlagSet) func() (fabric.SubmitParams, error) {
	var p daemon.LoadParams
	fs.StringVar(&p.App, "app", "nginx", "built-in server app to load (see pssp.Apps)")
	fs.StringVar(&p.Scheme, "scheme", "p-ssp", "protection scheme of the servers")
	mix := fs.String("mix", "benign:1", "traffic mix, e.g. 'benign:3,probe=adaptive:1'")
	fs.StringVar(&p.Arrivals, "arrivals", "poisson", "arrival model: poisson | uniform | closed")
	fs.Float64Var(&p.Rate, "rate", 10, "open-loop offered rate (requests per million victim cycles)")
	fs.IntVar(&p.Clients, "clients", 8, "closed-loop client population")
	fs.Float64Var(&p.ThinkCycles, "think", 0, "closed-loop mean think time (cycles)")
	fs.IntVar(&p.Requests, "requests", 256, "total request budget (0 = duration-bounded)")
	fs.Uint64Var(&p.DurationCycles, "duration", 0, "virtual-time horizon in cycles (0 = request-bounded)")
	fs.IntVar(&p.Shards, "shards", 4, "replica servers the clients shard over (part of the scenario)")
	fs.IntVar(&p.Workers, "workers", 0, "concurrent shard executors (0 = GOMAXPROCS; wall-clock only)")
	fs.IntVar(&p.Budget, "budget", 64, "probe trials per attack replication")
	sweep := fs.String("sweep", "", "offered-load multipliers, e.g. '0.5,1,2,4' (locates the saturation knee)")
	fs.Uint64Var(&p.Seed, "seed", 1, "simulation seed")
	return func() (fabric.SubmitParams, error) {
		l := p
		job := fabric.SubmitParams{Kind: "loadtest", Load: &l}
		if err := canonicalScheme(&l.Scheme); err != nil {
			return job, err
		}
		var err error
		if l.Mix, err = ParseMix(*mix); err != nil {
			return job, err
		}
		l.Sweep, err = ParseSweep(*sweep)
		return job, err
	}
}

// FuzzFlags registers psspfuzz's fuzzing flags on fs, -corpus and
// -until-stall included.
func FuzzFlags(fs *flag.FlagSet) func() (fabric.SubmitParams, error) {
	var p daemon.FuzzParams
	job := fabric.SubmitParams{Kind: "fuzz"}
	fs.StringVar(&p.App, "app", "nginx-vuln", "built-in server app to fuzz (see pssp.Apps)")
	fs.StringVar(&p.Scheme, "scheme", "ssp", "protection scheme of the victim servers")
	seeds := fs.String("seeds", "", "seed corpus spec, e.g. 'GET /:2,PING' (empty = the app's built-in request)")
	fs.StringVar(&job.CorpusDir, "corpus", "", "persistent corpus directory: saved inputs seed the run, discoveries and the coverage frontier are folded back (local runs only)")
	dict := fs.String("dict", "", "mutation dictionary spec, e.g. 'Host:,HTTP/1.1:2'")
	fs.IntVar(&p.Execs, "execs", 4096, "total mutation budget across shards")
	fs.IntVar(&p.Shards, "shards", 4, "self-contained fuzzing shards, one replica victim each (part of the scenario)")
	fs.IntVar(&p.Workers, "workers", 0, "concurrent shard executors (0 = GOMAXPROCS; wall-clock only)")
	fs.IntVar(&p.MaxInput, "max-input", 1024, "generated input length cap in bytes")
	fs.IntVar(&job.UntilStall, "until-stall", 0, "continuous mode: rerun exec-bounded rounds, reseeded from the growing corpus, until the coverage frontier is unchanged for this many consecutive rounds (0 = single run)")
	fs.Uint64Var(&p.Seed, "seed", 1, "simulation seed")
	return func() (fabric.SubmitParams, error) {
		f, job := p, job
		job.Fuzz = &f
		if err := canonicalScheme(&f.Scheme); err != nil {
			return job, err
		}
		var err error
		if f.Seeds, err = ParseByteItems(*seeds); err != nil {
			return job, fmt.Errorf("seeds %w", err)
		}
		if f.Dict, err = ParseByteItems(*dict); err != nil {
			return job, fmt.Errorf("dict %w", err)
		}
		return job, nil
	}
}
