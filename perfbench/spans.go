package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the log was
// created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (l *spanLog) begin(parent int, name, attr string) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Attr: attr, Start: now, End: -1})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records a closed span from absolute times, such as the server-side
// queue and run intervals a job reports.
func (l *spanLog) add(parent int, name, attr string, start, end time.Time) {
	if l == nil || start.IsZero() || end.IsZero() {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Attr: attr,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
}

// spanTotals summarizes the spans of one name.
type spanTotals struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"totalS"`
	// SelfS is the total minus the part of each span's interval that
	// its child spans cover.
	SelfS float64 `json:"selfS"`
}

// report returns every span and the per-name totals.
func (l *spanLog) report() any {
	l.mu.Lock()
	defer l.mu.Unlock()
	return struct {
		Spans  []span                `json:"spans"`
		Totals map[string]spanTotals `json:"totals"`
	}{l.spans, totals(l.spans)}
}

func totals(spans []span) map[string]spanTotals {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]spanTotals{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		t := out[s.Name]
		t.Count++
		d := float64(s.End - s.Start)
		t.TotalS += d / 1e9
		t.SelfS += (d - float64(covered(s, children[s.ID]))) / 1e9
		out[s.Name] = t
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers, in nanoseconds.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}
