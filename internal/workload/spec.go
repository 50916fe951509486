// Package workload models the applications the paper evaluates: the five
// emerging-app categories of Table 1 (UHD video, 360° video, camera, AR,
// livestream) and the top-popular-app mixes of §5.5. Each app is a set of
// guest processes driving data pipelines across the emulator's virtual
// devices, with frame pacing, buffering, presentation deadlines, and
// motion-to-photon tagging — the machinery FPS and latency emerge from.
// Every app, emerging or popular, starts through StartEmerging and ends in
// one sink loop.
//
// App behaviour is deterministic: pacing, buffer churn, and scene
// variation all derive from the session seed in virtual time, so equal
// seeds render identical frame-by-frame results.
package workload

import (
	"time"

	"repro/internal/emulator"
	"repro/internal/hostsim"
)

// Resolution presets.
const (
	UHDWidth   = 3840
	UHDHeight  = 2160
	FHDWidth   = 1920
	FHDHeight  = 1080
	FHDPWidth  = 2400 // phone-style Full-HD+ panel (§2.3)
	FHDPHeight = 1080
)

// MPixels returns the megapixel count of a frame.
func MPixels(w, h int) float64 { return float64(w) * float64(h) / 1e6 }

// FrameBytes returns the byte size of a frame at the given bytes-per-pixel
// (4 for RGBA display buffers, 2 for YUY2/NV16 video frames — these produce
// the paper's 9.9 MiB and 15.8 MiB modal region sizes, §2.3).
func FrameBytes(w, h, bpp int) hostsim.Bytes {
	return hostsim.Bytes(w) * hostsim.Bytes(h) * hostsim.Bytes(bpp)
}

// Spec parameterizes one app run.
type Spec struct {
	Name     string
	Category int // emulator.Cat*
	Duration time.Duration

	// Content parameters.
	VideoW, VideoH int // video / camera frame resolution
	ContentFPS     int // media frame rate

	// DisplayW/H is the emulator panel (§5.1 configures UHD panels).
	DisplayW, DisplayH int

	// Buffers is the pipeline's buffer-pool depth (the buffering that
	// lengthens slack intervals, §2.3).
	Buffers int

	// Projection marks 360° video (extra GPU reprojection work).
	Projection bool

	// ARWorkload marks AR apps (heavy 3D overlay + CPU tracking).
	ARWorkload bool

	// UIDirtyFraction is the share of the display-sized UI overlay
	// redrawn per frame by the app's UI thread (0 disables the overlay).
	UIDirtyFraction float64

	// NetworkDelay is the source-to-NIC delay for livestream apps.
	NetworkDelay time.Duration

	// StaleTolerance is how late a frame may present before being
	// discarded (§5.4's presentation deadline). Zero means one frame
	// period.
	StaleTolerance time.Duration

	// popular is a frame-loop app's kind (heavy-3D game or UI app), set
	// by PopularSpec; only Category catFrameLoop reads it.
	popular PopularKind
}

// normalize fills defaults.
func (s *Spec) normalize() {
	if s.Duration == 0 {
		s.Duration = 30 * time.Second
	}
	if s.ContentFPS == 0 {
		s.ContentFPS = 60
	}
	if s.VideoW == 0 {
		s.VideoW, s.VideoH = UHDWidth, UHDHeight
	}
	if s.DisplayW == 0 {
		s.DisplayW, s.DisplayH = UHDWidth, UHDHeight
	}
	if s.Buffers == 0 {
		s.Buffers = 4
	}
	if s.StaleTolerance == 0 {
		s.StaleTolerance = time.Second / time.Duration(s.ContentFPS)
	}
	if s.NetworkDelay == 0 {
		s.NetworkDelay = 40 * time.Millisecond
	}
}

// FramePeriod returns the media frame period.
func (s *Spec) FramePeriod() time.Duration {
	return time.Second / time.Duration(s.ContentFPS)
}

// VideoFrameBytes returns the decoded video frame size (2 bytes/pixel).
func (s *Spec) VideoFrameBytes() hostsim.Bytes { return FrameBytes(s.VideoW, s.VideoH, 2) }

// DisplayFrameBytes returns the display buffer size (4 bytes/pixel).
func (s *Spec) DisplayFrameBytes() hostsim.Bytes { return FrameBytes(s.DisplayW, s.DisplayH, 4) }

// UIDirtyBytes returns the UI bytes redrawn per frame.
func (s *Spec) UIDirtyBytes() hostsim.Bytes {
	return hostsim.Bytes(float64(s.DisplayFrameBytes()) * s.UIDirtyFraction)
}

// DefaultSpec returns the paper's standard configuration for a category
// (§2.3 workloads: UHD content, 60 FPS, UHD panel) with mild per-app
// variation driven by the app index.
func DefaultSpec(category, appIndex int, duration time.Duration) Spec {
	s := Spec{
		Name:     emulator.CategoryNames[category],
		Category: category,
		Duration: duration,
	}
	s.Buffers = 3 + appIndex%3 // apps buffer differently (§2.3)
	switch category {
	case emulator.CatUHDVideo:
		s.UIDirtyFraction = 0.15 + 0.05*float64(appIndex%3)
	case emulator.Cat360Video:
		s.Projection = true
		s.UIDirtyFraction = 0.10 + 0.05*float64(appIndex%3)
	case emulator.CatCamera:
		s.UIDirtyFraction = 0.20 + 0.05*float64(appIndex%2)
	case emulator.CatAR:
		s.ARWorkload = true
		s.UIDirtyFraction = 0.25
	case emulator.CatLivestream:
		s.UIDirtyFraction = 0.25 + 0.05*float64(appIndex%2)
		s.NetworkDelay = time.Duration(35+2*(appIndex%4)) * time.Millisecond
	}
	s.normalize()
	return s
}
