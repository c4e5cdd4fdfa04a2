package main

import (
	"flag"
	"strings"
	"testing"

	"senkf"
)

// TestCheckTracedRun: every observer flag with every flag the traced run
// drops is an error naming both; either kind alone, or neither, is not.
func TestCheckTracedRun(t *testing.T) {
	for _, o := range observerFlags {
		for _, d := range droppedByTracedRun {
			err := checkTracedRun(map[string]bool{o: true, d: true, "quick": true})
			if err == nil || !strings.Contains(err.Error(), "-"+o) || !strings.Contains(err.Error(), "-"+d) {
				t.Errorf("-%s with -%s: %v, want an error naming both", o, d, err)
			}
		}
		if err := checkTracedRun(map[string]bool{o: true, "quick": true, "trace-np": true}); err != nil {
			t.Errorf("-%s alone: %v", o, err)
		}
	}
	for _, d := range droppedByTracedRun {
		if err := checkTracedRun(map[string]bool{d: true, "trace": false}); err != nil {
			t.Errorf("-%s without an observer: %v", d, err)
		}
	}
}

// TestObserverFlagsAreTheSessions: the observer flags checkTracedRun knows
// are flags the run session registers.
func TestObserverFlagsAreTheSessions(t *testing.T) {
	fs := flag.NewFlagSet("senkf-bench", flag.ContinueOnError)
	senkf.RegisterRunFlags(fs, "senkf-bench")
	for _, o := range observerFlags {
		if fs.Lookup(o) == nil {
			t.Errorf("-%s is not a run-session flag", o)
		}
	}
}
