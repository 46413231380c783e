package cliutil

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"repro/internal/daemon"
	"repro/internal/fabric"
)

// parseKind parses args with kind's flag set, as its CLI would.
func parseKind(t *testing.T, kind string, args ...string) fabric.SubmitParams {
	t.Helper()
	fs := flag.NewFlagSet(kind, flag.ContinueOnError)
	build := kinds[kind](fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	job, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if job.Kind != kind {
		t.Fatalf("kind %q built a %q job", kind, job.Kind)
	}
	return job
}

// TestFlagDefaultsAreNormalized pins the daemon's second copy of the flag
// defaults: a job built from an empty command line is already normalized,
// so a daemon or fabric job resolves the scenario the CLI run does.
func TestFlagDefaultsAreNormalized(t *testing.T) {
	a := *parseKind(t, "campaign").Attack
	if got := daemon.NormalizeAttackParams(a); !reflect.DeepEqual(got, a) || a.Seed != 1 {
		t.Errorf("campaign defaults %+v, normalized %+v", a, got)
	}
	l := *parseKind(t, "loadtest").Load
	if got := daemon.NormalizeLoadParams(l); !reflect.DeepEqual(got, l) || l.Seed != 1 {
		t.Errorf("loadtest defaults %+v, normalized %+v", l, got)
	}
	job := parseKind(t, "fuzz")
	f := *job.Fuzz
	if got := daemon.NormalizeFuzzParams(f); !reflect.DeepEqual(got, f) || f.Seed != 1 {
		t.Errorf("fuzz defaults %+v, normalized %+v", f, got)
	}
	if job.CorpusDir != "" || job.UntilStall != 0 {
		t.Errorf("fuzz defaults to corpus %q, until-stall %d", job.CorpusDir, job.UntilStall)
	}
}

func TestSchemeIsCanonicalized(t *testing.T) {
	schemes := map[string]func(fabric.SubmitParams) string{
		"campaign": func(j fabric.SubmitParams) string { return j.Attack.Scheme },
		"loadtest": func(j fabric.SubmitParams) string { return j.Load.Scheme },
		"fuzz":     func(j fabric.SubmitParams) string { return j.Fuzz.Scheme },
	}
	for kind, scheme := range schemes {
		if got := scheme(parseKind(t, kind, "-scheme", "PSSP")); got != "p-ssp" {
			t.Errorf("%s: -scheme PSSP built scheme %q, want p-ssp", kind, got)
		}
	}
}

func TestParseJob(t *testing.T) {
	job, err := ParseJob([]string{"fuzz", "-execs", "512", "-corpus", "c", "-until-stall", "2", "-seeds", "GET /:2"})
	if err != nil {
		t.Fatal(err)
	}
	if job.Kind != "fuzz" || job.Fuzz.Execs != 512 || job.CorpusDir != "c" ||
		job.UntilStall != 2 || len(job.Fuzz.Seeds) != 2 {
		t.Fatalf("got %+v, fuzz %+v", job, job.Fuzz)
	}
	for _, args := range [][]string{nil, {"attack"}, {"-target", "nginx-vuln"}} {
		_, err := ParseJob(args)
		if err == nil || !strings.Contains(err.Error(), "campaign, loadtest, fuzz") {
			t.Errorf("ParseJob(%q): error %v does not list the kinds", args, err)
		}
	}
	if _, err := ParseJob([]string{"campaign", "-budget", "8", "stray"}); err == nil {
		t.Error("stray argument after the kind flags accepted")
	}
}
