package obs

import "time"

// Span measures one timed phase into a duration histogram (nanoseconds).
// The zero Span — returned by StartSpan on a nil histogram — is a no-op
// that never reads the clock.
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing into a histogram resolved once up front, so
// hot loops pay no registry lookup. On a nil histogram (as a nil
// registry returns) the returned Span is inert and costs nothing beyond
// the nil check.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End stops the span and records the elapsed nanoseconds. No-op on an
// inert span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(int64(time.Since(s.start)))
}
