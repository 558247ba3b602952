// Package trace is a minimal stand-in for repro/internal/trace, just
// enough surface for the spanbalance fixtures to type-check: the
// analyzer matches Start/Child/End by package name and span type, so
// this fixture exercises exactly the same resolution path as the real
// package.
package trace

// Tracer mirrors the span-creating half of the real tracer.
type Tracer struct{}

// Span mirrors the real span handle.
type Span struct{}

// New returns an enabled tracer.
func New() *Tracer { return &Tracer{} }

// Start opens a span on a track.
func (t *Tracer) Start(track, name string, kvs ...string) *Span { return &Span{} }

// AsyncSpanLinkAt records an already-closed interval (no End required).
func (t *Tracer) AsyncSpanLinkAt(track, name string, cause uint64, start, dur int64, kvs ...string) {}

// Child opens a child span.
func (s *Span) Child(name string, kvs ...string) *Span { return &Span{} }

// Annotate attaches a key/value argument to the span.
func (s *Span) Annotate(key, value string) {}

// Link records a causal edge to another span.
func (s *Span) Link(id uint64) {}

// ID returns the span's stream-unique id.
func (s *Span) ID() uint64 { return 0 }

// End closes the span.
func (s *Span) End() {}
