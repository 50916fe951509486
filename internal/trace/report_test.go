package trace

import (
	"strings"
	"testing"
)

// TestReportOwnerOrder checks the documented owner order: bytes descending,
// ties broken by name.
func TestReportOwnerOrder(t *testing.T) {
	c := NewCollector()
	c.Record(Event{Caller: "b", Region: 1, Bytes: 10})
	c.Record(Event{Caller: "a", Region: 2, Bytes: 10})
	c.Record(Event{Caller: "z", Region: 3, Bytes: 99})
	var got []string
	for _, u := range c.TopUsers(0) {
		got = append(got, u.Caller)
	}
	if strings.Join(got, " ") != "z a b" {
		t.Fatalf("owner order = %v, want [z a b]", got)
	}
}

// TestAndroidServiceOf covers every mapped device name and the unknown-name
// passthrough.
func TestAndroidServiceOf(t *testing.T) {
	cases := map[string]string{
		"codec":          "media-service",
		"gpu":            "surfaceflinger",
		"display":        "surfaceflinger",
		"camera":         "camera-service",
		"isp":            "camera-service",
		"nic":            "network-stack",
		"modem":          "network-stack",
		"cpu":            "app-process",
		"npu":            "npu",        // unmapped device passes through
		"some-thing":     "some-thing", // arbitrary strings pass through
		"":               "",
		"surfaceflinger": "surfaceflinger", // already a service name
	}
	for in, want := range cases {
		if got := AndroidServiceOf(in); got != want {
			t.Errorf("AndroidServiceOf(%q) = %q, want %q", in, got, want)
		}
	}
}
