package sim

import "snacknoc/internal/flat"

// Stop makes Run return after the current cycle completes. The stop latch
// stays set — further Run calls return immediately — until Resume clears
// it.
func (e *Engine) Stop() { e.stopped = true }

// Resume clears the stop latch so the engine can run again. Stop/Resume
// make an engine reusable across measurement windows: stop, read
// statistics, resume.
func (e *Engine) Resume() { e.stopped = false }

// Stopped reports whether Stop has been called without a matching Resume.
func (e *Engine) Stopped() bool { return e.stopped }

// eventChunk is the event slab's first size; it doubles from there.
const eventChunk = flat.LinksChunk
