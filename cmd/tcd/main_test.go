package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"tc2d"
)

// newTestServer serves a 4-rank in-process cluster over a small RMAT graph.
func newTestServer(t *testing.T) (*server, *tc2d.Graph) {
	t.Helper()
	g, err := tc2d.GenerateRMAT(tc2d.G500, 8, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := tc2d.NewCluster(g, tc2d.Options{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	s := newServer(cl, "test", time.Now(), 0)
	s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	return s, g
}

// call sends one request through the server's handler and decodes the JSON
// body it answers.
func call(t *testing.T, s *server, method, target string, body io.Reader) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, httptest.NewRequest(method, target, body))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: %d, body %q is not JSON: %v", method, target, rec.Code, rec.Body.String(), err)
	}
	return rec, out
}

// update posts one batch to /update.
func update(t *testing.T, s *server, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	return call(t, s, http.MethodPost, "/update", strings.NewReader(body))
}

func TestCountMatchesSequential(t *testing.T) {
	s, g := newTestServer(t)
	rec, body := call(t, s, http.MethodGet, "/count", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /count: %d %v", rec.Code, body)
	}
	if got, want := int64(body["triangles"].(float64)), tc2d.CountSequential(g); got != want {
		t.Errorf("GET /count: %d triangles, sequential %d", got, want)
	}
}

// openWedge returns the ends of an open wedge u–w–v of g: inserting (u, v)
// closes at least one triangle.
func openWedge(t *testing.T, g *tc2d.Graph) (u, v int32) {
	t.Helper()
	for w := int32(0); w < g.N; w++ {
		nb := g.Neighbors(w)
		for i := range nb {
			for _, b := range nb[i+1:] {
				if !slices.Contains(g.Neighbors(nb[i]), b) {
					return nb[i], b
				}
			}
		}
	}
	t.Fatal("no open wedge in the test graph")
	return -1, -1
}

func TestUpdateInsertThenDelete(t *testing.T) {
	s, g := newTestServer(t)
	u, v := openWedge(t, g)
	closed, err := tc2d.NewGraph(g.N, append(g.Edges(), tc2d.Edge{U: u, V: v}))
	if err != nil {
		t.Fatal(err)
	}
	tri0, m0 := tc2d.CountSequential(g), g.NumEdges()
	for _, step := range []struct {
		op       string
		tri, m   int64
		inserted float64
	}{
		{"insert", tc2d.CountSequential(closed), m0 + 1, 1},
		{"delete", tri0, m0, 0},
	} {
		rec, body := update(t, s, fmt.Sprintf(`{"updates":[{"u":%d,"v":%d,"op":%q}]}`, u, v, step.op))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s (%d, %d): %d %v", step.op, u, v, rec.Code, body)
		}
		if tri, m := int64(body["triangles"].(float64)), int64(body["m"].(float64)); tri != step.tri || m != step.m {
			t.Errorf("after %s (%d, %d): triangles=%d m=%d, want %d, %d", step.op, u, v, tri, m, step.tri, step.m)
		}
		if body["inserted"].(float64) != step.inserted {
			t.Errorf("after %s: inserted=%v, want %v", step.op, body["inserted"], step.inserted)
		}
	}
	if tri0 == tc2d.CountSequential(closed) {
		t.Error("the inserted edge closed no triangle; the test proves nothing")
	}
}

func TestUpdateRejectsBadBatches(t *testing.T) {
	s, _ := newTestServer(t)
	rec, body := update(t, s, `{"updates":[{"u":1,"v":2,"op":"upsert"}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown op: %d %v, want 400", rec.Code, body)
	}
	rec, body = update(t, s, `{"updates":[{"u":-1,"v":2,"op":"insert"}]}`)
	if rec.Code != http.StatusBadRequest || body["code"] != "vertex_range" {
		t.Errorf("negative id: %d %v, want 400 with code vertex_range", rec.Code, body)
	}
	if n := s.cluster.Info().Updates; n != 0 {
		t.Errorf("rejected batches were applied: Updates=%d", n)
	}
}

// oversizedBody is a valid one-insert batch padded to maxUpdateBody+1 bytes,
// generated as it is read so the test never holds it in memory.
func oversizedBody() io.Reader {
	head, tail := `{"updates":[{"u":0,"v":1,"op":"insert"}`, `]}`
	pad := maxUpdateBody + 1 - int64(len(head)+len(tail))
	return io.MultiReader(strings.NewReader(head), io.LimitReader(spaces{}, pad), strings.NewReader(tail))
}

// spaces reads as an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestUpdateBodyCap(t *testing.T) {
	s, _ := newTestServer(t)
	req := httptest.NewRequest(http.MethodPost, "/update", oversizedBody())
	req.ContentLength = maxUpdateBody + 1
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), `"error"`) {
		t.Errorf("body one byte over the cap: %d %q, want 413 with a JSON error", rec.Code, rec.Body.String())
	}
	if n := s.cluster.Info().Updates; n != 0 {
		t.Errorf("an oversized batch was applied: Updates=%d", n)
	}
}

func TestSnapshotNotDurable(t *testing.T) {
	s, _ := newTestServer(t)
	if rec, body := call(t, s, http.MethodPost, "/snapshot", nil); rec.Code != http.StatusConflict {
		t.Errorf("POST /snapshot without -persist-dir: %d %v, want 409", rec.Code, body)
	}
}

func TestDrainingRefuses(t *testing.T) {
	s, _ := newTestServer(t)
	s.draining.Store(true)
	for _, r := range []struct{ method, path, body string }{
		{http.MethodGet, "/healthz", ""},
		{http.MethodPost, "/update", `{"updates":[{"u":0,"v":1}]}`},
	} {
		rec, body := call(t, s, r.method, r.path, strings.NewReader(r.body))
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Errorf("%s %s while draining: %d, Retry-After %q, %v; want 503 with Retry-After",
				r.method, r.path, rec.Code, rec.Header().Get("Retry-After"), body)
		}
	}
	if n := s.cluster.Info().Updates; n != 0 {
		t.Errorf("an update was applied while draining: Updates=%d", n)
	}
}

func TestStatsAndTransitivityFollowUpdates(t *testing.T) {
	s, g := newTestServer(t)
	// Delete one edge and close an open wedge, so the edge, wedge and
	// triangle totals all move.
	del := g.Edges()[0]
	u, v := openWedge(t, g)
	ins := tc2d.Edge{U: u, V: v}
	var edges []tc2d.Edge
	for _, e := range g.Edges() {
		if e != del {
			edges = append(edges, e)
		}
	}
	mutated, err := tc2d.NewGraph(g.N, append(edges, ins))
	if err != nil {
		t.Fatal(err)
	}
	rec, body := update(t, s, fmt.Sprintf(`{"updates":[{"u":%d,"v":%d,"op":"delete"},{"u":%d,"v":%d,"op":"insert"}]}`,
		del.U, del.V, ins.U, ins.V))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /update: %d %v", rec.Code, body)
	}

	rec, body = call(t, s, http.MethodGet, "/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /stats: %d %v", rec.Code, body)
	}
	graph, cluster := body["graph"].(map[string]any), body["cluster"].(map[string]any)
	if m := int64(graph["m"].(float64)); m != mutated.NumEdges() {
		t.Errorf("/stats graph.m = %d, want %d", m, mutated.NumEdges())
	}
	if w := int64(graph["wedges"].(float64)); w != tc2d.WedgeCount(mutated) {
		t.Errorf("/stats graph.wedges = %d, want %d", w, tc2d.WedgeCount(mutated))
	}
	if n := cluster["updates"].(float64); n != 1 {
		t.Errorf("/stats cluster.updates = %v, want 1", n)
	}
	if ops := cluster["pre_ops"].(float64); ops <= 0 {
		t.Errorf("/stats cluster.pre_ops = %v, want > 0 on a cluster built from a graph", ops)
	}

	rec, body = call(t, s, http.MethodGet, "/transitivity", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /transitivity: %d %v", rec.Code, body)
	}
	if got, want := body["transitivity"].(float64), tc2d.Transitivity(mutated); got != want {
		t.Errorf("/transitivity = %v, want %v", got, want)
	}
	if got, want := tc2d.Transitivity(mutated), tc2d.Transitivity(g); got == want {
		t.Errorf("the update left the transitivity at %v; the test proves nothing", got)
	}
}

func TestReadBoundMaxLagMs(t *testing.T) {
	for _, c := range []struct {
		v    string
		want time.Duration // 0: refused
	}{
		{"NaN", 0},
		{"Inf", 0},
		{"-Inf", 0},
		{"1e300", 0},
		{"0", 0},
		{"5", 5 * time.Millisecond},
	} {
		b, err := readBound(httptest.NewRequest(http.MethodGet, "/count?max_lag_ms="+c.v, nil))
		switch {
		case c.want == 0 && err == nil:
			t.Errorf("max_lag_ms=%s accepted as MaxLag %v, want an error (400)", c.v, b.MaxLag)
		case c.want != 0 && err != nil:
			t.Errorf("max_lag_ms=%s: %v", c.v, err)
		case c.want != 0 && b.MaxLag != c.want:
			t.Errorf("max_lag_ms=%s: MaxLag %v, want %v", c.v, b.MaxLag, c.want)
		}
	}
}
