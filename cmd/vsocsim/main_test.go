package main

import (
	"cmp"
	"flag"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestCheckFarmFlags: farm flags that would otherwise be ignored — a
// negative guest count, -v in farm mode — are usage errors.
func TestCheckFarmFlags(t *testing.T) {
	for _, tc := range []struct {
		guests  int
		verbose bool
		ok      bool
	}{
		{guests: 0, ok: true},
		{guests: 4, ok: true},
		{guests: 0, verbose: true, ok: true},
		{guests: -1, ok: false},
		{guests: -1, verbose: true, ok: false},
		{guests: 4, verbose: true, ok: false},
	} {
		if err := checkFarmFlags(tc.guests, tc.verbose); (err == nil) != tc.ok {
			t.Errorf("checkFarmFlags(%d, %v) = %v, want ok=%v", tc.guests, tc.verbose, err, tc.ok)
		}
	}
}

// TestCheckFlags: an unknown -emulator, -machine or -app name and a
// non-positive duration are usage errors in both modes, on top of the
// farm-flag rules; names resolve case-insensitively, an unknown one's
// error lists the valid names, and the Makefile's invocations (every app
// with -v and with -guests 2) are accepted.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		emu, machine, app string
		duration          time.Duration
		guests            int
		verbose           bool
		monPath           string
		ok                bool
		errNames          string // the name list the error must carry
	}{
		{duration: 30 * time.Second, guests: 0, ok: true},
		{duration: time.Millisecond, guests: 4, ok: true},
		{duration: 0, guests: 0, ok: false},
		{duration: -5 * time.Second, guests: 0, ok: false},
		{duration: 0, guests: 4, ok: false},
		{duration: 30 * time.Second, guests: -1, ok: false},
		{duration: time.Second, monPath: "mon.json", ok: true},
		{duration: time.Second, guests: 2, monPath: "mon.json", ok: true},

		// Names.
		{emu: "GAE", machine: "MidEnd", app: "Heavy3D", duration: time.Second, ok: true},
		{emu: "vsoc-nofence", machine: "pixel", app: "social", duration: time.Second, guests: 2, ok: true},
		{emu: "nosuch", duration: time.Second, ok: false, errNames: names(presetsByName)},
		{machine: "nosuch", duration: time.Second, ok: false, errNames: names(machinesByName)},
		{app: "nosuch", duration: time.Second, ok: false, errNames: names(appSpecs)},
		{app: "nosuch", duration: time.Second, guests: 2, ok: false, errNames: names(appSpecs)},
	} {
		emu, machine, app := cmp.Or(tc.emu, "vsoc"), cmp.Or(tc.machine, "highend"), cmp.Or(tc.app, "uhd")
		cfg := experiments.Config{Duration: tc.duration, MonPath: tc.monPath}
		tg, err := checkFlags(cfg, emu, machine, app, tc.guests, tc.verbose)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, -emulator %s -machine %s -app %s -guests %d -v=%v -monout %q) = %v, want ok=%v",
				tc.duration, emu, machine, app, tc.guests, tc.verbose, tc.monPath, err, tc.ok)
		}
		if tc.errNames != "" && (err == nil || !strings.Contains(err.Error(), "(want one of "+tc.errNames+")")) {
			t.Errorf("checkFlags(-emulator %s -machine %s -app %s) = %v, want it to list %s", emu, machine, app, err, tc.errNames)
		}
		if err == nil && (tg.spec == nil || tg.machine.New == nil || tg.preset.Name == "") {
			t.Errorf("checkFlags(-emulator %s -machine %s -app %s) resolved %+v", emu, machine, app, tg)
		}
	}
	for app := range appSpecs {
		for _, guests := range []int{0, 2} {
			if _, err := checkFlags(experiments.Config{Duration: 2 * time.Second}, "vsoc", "highend", app, guests, guests == 0); err != nil {
				t.Errorf("sim-smoke's -app %s (-guests %d) rejected: %v", app, guests, err)
			}
		}
	}
}

// TestNameFlagUsageListsTables: the -emulator, -machine and -app usage
// strings list the names of their own tables.
func TestNameFlagUsageListsTables(t *testing.T) {
	fs := flag.NewFlagSet("vsocsim", flag.ContinueOnError)
	bindNames(fs)
	for name, list := range map[string]string{
		"emulator": names(presetsByName),
		"machine":  names(machinesByName),
		"app":      names(appSpecs),
	} {
		if usage := fs.Lookup(name).Usage; !strings.HasSuffix(usage, "one of "+list) {
			t.Errorf("-%s usage %q, want it to list %s", name, usage, list)
		}
	}
}
