package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestRunRejectsBadFlags: each command line here used to panic, hang,
// fail deep inside the decider, or run a meaningless schedule. run must
// refuse it up front with an error that names the flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"-ranks 2 -active 3", "-active"},
		{"-active 0", "-active"},
		{"-state -1", "-state"},
		{"-iters 0", "-iters"},
		{"-work NaN", "-work"},
		{"-accel NaN", "-accel"},
		{"-accel +Inf", "-accel"},
		{"-inject 0@0:NaN", "-inject"},
		{"-inject 0@0:+Inf", "-inject"},
		{"-inject 0@NaN:2", "-inject"},
		{"-inject 0@-1:2", "-inject"},
		{"-inject 0@+Inf:2", "-inject"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(strings.Fields(tc.args), &stdout, &stderr)
			if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
				t.Fatalf("run(%s) = %v, want an error naming %s", tc.args, err, tc.flag)
			}
		})
	}
}

// TestSweepRefusesOneRunOutputs: a sweep's scenarios would overwrite one
// another's trace, dumps, store and port.
func TestSweepRefusesOneRunOutputs(t *testing.T) {
	for _, flag := range []string{"-trace-out x", "-events-out x", "-metrics-out x",
		"-flight-dir x", "-debug-addr 127.0.0.1:0", "-mgr-store x"} {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields("-scenarios 2 "+flag), &stdout, &stderr)
		if name := strings.Fields(flag)[0]; err == nil || !strings.HasPrefix(err.Error(), name+" ") {
			t.Errorf("run(-scenarios 2 %s) = %v, want an error naming %s", flag, err, name)
		}
	}
}

// TestRotate pins a sweep's schedule: scenario i moves an injection on
// active rank r to (r+i) mod active, (7i mod iters/2) iterations of work
// later, and leaves one aimed at a spare alone.
func TestRotate(t *testing.T) {
	o := options{active: 2, iters: 30, work: 20, injections: []injection{
		{Rank: 1, Delay: 300 * time.Millisecond, Factor: 8},
		{Rank: 3, Delay: 0, Factor: 4},
	}}
	if got := o.rotate(0); !reflect.DeepEqual(got, o.injections) {
		t.Errorf("scenario 0 = %+v, want the schedule as given", got)
	}
	// 7*3 mod 15 = 6 iterations of 20 ms.
	want := []injection{{Rank: 0, Delay: 420 * time.Millisecond, Factor: 8}, {Rank: 3, Factor: 4}}
	if got := o.rotate(3); !reflect.DeepEqual(got, want) {
		t.Errorf("scenario 3 = %+v, want %+v", got, want)
	}
	if o.injections[0].Rank != 1 {
		t.Error("rotate changed the parsed schedule")
	}
}
