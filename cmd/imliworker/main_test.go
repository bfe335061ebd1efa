package main

import (
	"io"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "-coordinator http://"},
		{[]string{"-coordinator", "host:8327"}, "scheme"},
		{[]string{"-coordinator", "http://"}, "host"},
		{[]string{"-coordinator", "http://h:1", "-slots=-2"}, "-slots"},
		{[]string{"-shards=0"}, "-shards"},
		{[]string{"-parallel=-3"}, "-parallel"},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil {
			t.Errorf("run(%v) accepted invalid flags", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error %q does not mention %s", tc.args, err, tc.want)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}, io.Discard, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard, io.Discard); err != nil {
		t.Errorf("-h should exit clean, got %v", err)
	}
}
