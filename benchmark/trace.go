package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"fastjoin"
)

// A traced run records, for 1 in traceSample tuples (by Seq, per side), when
// the tuple crossed each layer boundary. The record lives in the
// benchmark's own table keyed by the tuple's (Side, Seq) — the id every
// span of the tuple shares — so it also survives the remote workload's
// wire, which a pointer in Tuple.Payload would not. The stamps come from
// the benchmark's hooks around the calls into each layer: the source
// callback (spout), Options.PreProcess (shuffler), JoinedPair.JoinedAt
// (joiner; the program's own stamp) and Options.OnResult (sink).

// spanRec is one traced tuple. Each field has one writing goroutine, and
// the driver reads the table only after the system has stopped.
type spanRec struct {
	due    int64 // scheduled creation time
	admit  int64 // source callback returned the tuple (spout goroutine)
	pre    int64 // PreProcess ran (a shuffler goroutine)
	joined int64 // JoinedAt of the first result it completed (joiner's stamp)
	emit   int64 // OnResult received that result (sink goroutine)
	// results is how many results had this tuple as their last event.
	results int32
}

type spanTable struct {
	recs [2][]spanRec
}

// spanRing is the table size of an unpaced traced phase, whose tuple count
// is not known in advance; records are overwritten and never read.
const spanRing = 4096

// newSpanTable sizes the table for a schedule of n tuples (either side may
// carry up to all of them).
func newSpanTable(n int) *spanTable {
	size := n/traceSample + 1
	return &spanTable{recs: [2][]spanRec{make([]spanRec, size), make([]spanRec, size)}}
}

func (s *spanTable) rec(side fastjoin.Side, seq uint64) *spanRec {
	r := s.recs[side]
	return &r[(seq/traceSample)%uint64(len(r))]
}

// preProcess is the shuffler-boundary hook.
func (s *spanTable) preProcess(t fastjoin.Tuple) fastjoin.Tuple {
	if t.Seq%traceSample == 0 {
		s.rec(t.Side, t.Seq).pre = nowNs()
	}
	return t
}

// span is one layer interval of one traced tuple, as written to the trace
// file: spans of one tuple share its id and name the span that caused them.
type span struct {
	ID      string `json:"id"` // "<side>#<seq>"
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"` // since the phase started
	EndNs   int64  `json:"end_ns"`
}

// The four spans, in causal order. A tuple that completed no result has
// only the first two.
const (
	spanAdmit   = "spout.admit_wait"      // due → source call returns
	spanShuffle = "shuffler.queue_wait"   // → PreProcess
	spanTransit = "dispatch_join.transit" // → JoinedAt
	spanSink    = "sink.wait"             // → OnResult
	spanTuple   = "tuple"                 // root: due → last stamp
)

// spans flattens the table into span records and per-name duration
// histograms (nanoseconds).
func (s *spanTable) spans(start int64) ([]span, map[string]*hist) {
	hists := map[string]*hist{spanAdmit: {}, spanShuffle: {}, spanTransit: {}, spanSink: {}}
	var out []span
	for side := range s.recs {
		for i := range s.recs[side] {
			r := &s.recs[side][i]
			if r.due == 0 || r.pre == 0 {
				continue // never scheduled, or not yet through the shuffler
			}
			id := fmt.Sprintf("%s#%d", fastjoin.Side(side), uint64(i)*traceSample)
			end := r.pre
			if r.results > 0 {
				end = r.emit
			}
			out = append(out, span{ID: id, Name: spanTuple, StartNs: r.due - start, EndNs: end - start})
			add := func(name, parent string, from, to int64) {
				out = append(out, span{ID: id, Name: name, Parent: parent, StartNs: from - start, EndNs: to - start})
				hists[name].add(to - from)
			}
			add(spanAdmit, spanTuple, r.due, r.admit)
			add(spanShuffle, spanAdmit, r.admit, r.pre)
			if r.results > 0 {
				add(spanTransit, spanShuffle, r.pre, r.joined)
				add(spanSink, spanTransit, r.joined, r.emit)
			}
		}
	}
	return out, hists
}

// timing is one isolated-call measurement: a layer's exported function
// timed on a single goroutine, with how many calls the figure averages.
type timing struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Calls int     `json:"calls"`
}

// traceFile is what a traced run leaves in <out>/trace-<workload>.json.
type traceFile struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Phase     string   `json:"phase"`
	StartUnix int64    `json:"start_unix_ns"`
	Sample    int      `json:"tuple_sample"`
	Spans     []span   `json:"spans"`
	Timings   []timing `json:"isolated_timings"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tf); err != nil {
		f.Close()
		return "", err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

var queueHWLine = regexp.MustCompile(`^fastjoin_engine_queue_high_water\{component="([^"]+)",task="\d+"\} (\S+)$`)

// scrapeQueueHighWater reads each component's deepest data-queue backlog
// (the maximum over its tasks) from the system's own /metrics endpoint —
// the facade does not expose engine task stats any other way.
func scrapeQueueHighWater(addr string) (map[string]float64, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		m := queueHWLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %q: %w", sc.Text(), err)
		}
		if v > out[m[1]] {
			out[m[1]] = v
		}
	}
	return out, sc.Err()
}
