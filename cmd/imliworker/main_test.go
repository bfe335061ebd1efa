package main

import (
	"io"
	"strings"
	"testing"
	"time"
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
		// Leased items carry their own geometry, so an explicit
		// -shards would be ignored; it must fail before any lease loop.
		{[]string{"-coordinator", "http://127.0.0.1:1", "-shards=4", "-slots=1"}, "-shards"},
		{[]string{"-parallel=-3"}, "-parallel"},
	}
	for _, tc := range cases {
		done := make(chan error, 1)
		go func() { done <- run(tc.args, io.Discard, io.Discard) }()
		var err error
		select {
		case err = <-done:
		case <-time.After(10 * time.Second):
			t.Errorf("run(%v) did not return: flags accepted and leasing started", tc.args)
			continue
		}
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
