package cliflags

import (
	"flag"
	"strings"
	"testing"
	"time"
)

func parseDist(t *testing.T, args ...string) *Dist {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	Register(fs)
	d := RegisterDist(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return d
}

func TestDistDefaultsValidate(t *testing.T) {
	d := parseDist(t)
	if err := d.Validate(); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
	if d.LeaseTTL != 30*time.Second {
		t.Errorf("default -lease-ttl = %s", d.LeaseTTL)
	}
}

func TestLeaseTTLMustBePositive(t *testing.T) {
	d := parseDist(t, "-coordinator", "-lease-ttl", "-1s")
	err := d.Validate()
	if err == nil || !strings.Contains(err.Error(), "lease-ttl") {
		t.Errorf("Validate = %v, want -lease-ttl error", err)
	}
}

func TestParseWorkerURL(t *testing.T) {
	cases := []struct {
		raw  string
		want string // normalized URL, "" = error expected
		msg  string // substring of the error
	}{
		{"http://host:8327", "http://host:8327", ""},
		{"https://host/", "https://host", ""},
		{"", "", "needs the coordinator's base URL"},
		{"host:8327", "", "scheme"},
		{"ftp://host", "", "scheme"},
		{"http://", "", "host"},
	}
	for _, tc := range cases {
		got, err := ParseWorkerURL(tc.raw)
		if tc.want != "" {
			if err != nil || got != tc.want {
				t.Errorf("ParseWorkerURL(%q) = %q, %v; want %q", tc.raw, got, err, tc.want)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("ParseWorkerURL(%q) err = %v, want mention of %q", tc.raw, err, tc.msg)
		}
	}
}

func TestPositiveValidators(t *testing.T) {
	if err := Positive("job-workers", 0); err == nil || !strings.Contains(err.Error(), "-job-workers") {
		t.Errorf("Positive(0) = %v, want error naming the flag", err)
	}
	if err := Positive("job-workers", 2); err != nil {
		t.Errorf("Positive(2) = %v", err)
	}
	if err := PositiveDuration("ttl", 0); err == nil {
		t.Error("PositiveDuration(0) accepted")
	}
}

func TestSeedListRejectsNonPositive(t *testing.T) {
	if _, err := SeedList(0); err == nil {
		t.Error("SeedList(0) accepted")
	}
	if seeds, err := SeedList(3); err != nil || len(seeds) != 3 {
		t.Errorf("SeedList(3) = %v, %v", seeds, err)
	}
}

func TestConfigMapsFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	e := Register(fs)
	if err := fs.Parse([]string{"-parallel", "4", "-shards", "3", "-exact-shards"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := e.Config()
	if err != nil || cfg.Workers != 4 || cfg.Shards != 3 || !cfg.ExactShards {
		t.Errorf("Config() = %+v, %v", cfg, err)
	}
}

// TestConfigRejectsBadEngineFlags: -shards below 1 and a negative
// -parallel are errors naming the flag, not values the engine quietly
// replaces; -parallel=0 keeps meaning GOMAXPROCS.
func TestConfigRejectsBadEngineFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-shards", "0"}, "-shards"},
		{[]string{"-shards", "-3"}, "-shards"},
		{[]string{"-parallel", "-3"}, "-parallel"},
		{[]string{"-parallel", "0"}, ""},
		{[]string{"-shards", "1", "-parallel", "2"}, ""},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		e := Register(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		_, err := e.Config()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v rejected: %v", tc.args, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%v: error %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}
