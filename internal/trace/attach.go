package trace

import (
	"time"

	"repro/internal/hostsim"
	"repro/internal/svm"
)

// Attach wires a collector into an SVM manager's instrumentation hook.
// rename optionally maps accessor names (virtual devices) to the guest
// service operating them, matching §2.3's process attribution — pass nil to
// record raw device names.
func Attach(m *svm.Manager, c *Collector, rename func(string) string) {
	m.SetObserver(func(_ time.Duration, acc svm.Accessor, region svm.RegionID,
		bytes hostsim.Bytes, usage svm.Usage, _ time.Duration) {
		caller := acc.Name
		if rename != nil {
			caller = rename(caller)
		}
		c.Record(Event{
			Caller: caller,
			Region: uint64(region),
			Bytes:  int64(bytes),
			Write:  usage&svm.UsageWrite != 0,
		})
	})
}

// AndroidServiceOf maps vSoC's virtual-device names to the Android system
// services that operate them in the paper's study: the media service drives
// the codec, SurfaceFlinger drives GPU and display, and the camera service
// drives camera and ISP (§2.3).
func AndroidServiceOf(device string) string {
	switch device {
	case "codec":
		return "media-service"
	case "gpu", "display":
		return "surfaceflinger"
	case "camera", "isp":
		return "camera-service"
	case "nic", "modem":
		return "network-stack"
	case "cpu":
		return "app-process"
	}
	return device
}
