package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"mmdr/internal/metrics"
	"mmdr/internal/verify"
)

// newHTTPClient returns a client whose idle connections are reaped on
// cleanup so the leak checker sees a quiet process afterwards.
func newHTTPClient(t *testing.T) *http.Client {
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// postJSON round-trips one API call and decodes the response into out,
// returning the status code.
func postJSON(t *testing.T, c *http.Client, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
	}
	return resp.StatusCode
}

func TestHTTPServedAnswersBitwiseIdentical(t *testing.T) {
	checkLeaks := verify.Leak(t)
	model, queries := testModel(t, 1000, 24, 61)
	ref := cloneModel(t, model)
	const k = 5
	want := directAnswers(t, ref, queries, k)

	reg := metrics.NewRegistry()
	srv, err := New(model, Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	client := newHTTPClient(t)

	for i, q := range queries {
		var out NeighborsResponse
		if code := postJSON(t, client, base+"/knn", KNNRequest{Q: q, K: k}, &out); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
		if len(out.Neighbors) != len(want[i]) {
			t.Fatalf("query %d: %d neighbors, want %d", i, len(out.Neighbors), len(want[i]))
		}
		for j, nb := range out.Neighbors {
			if nb.ID != want[i][j].ID || math.Float64bits(nb.Dist) != math.Float64bits(want[i][j].Dist) {
				t.Fatalf("query %d answer %d: {%d %v} over HTTP, want {%d %v} — JSON must round-trip distances bit-exact",
					i, j, nb.ID, nb.Dist, want[i][j].ID, want[i][j].Dist)
			}
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	checkLeaks()
}

func TestHTTPEndpoints(t *testing.T) {
	model, queries := testModel(t, 600, 16, 71)
	reg := metrics.NewRegistry()
	srv, err := New(model, Options{Shards: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	client := newHTTPClient(t)

	// Range.
	var nbs NeighborsResponse
	if code := postJSON(t, client, base+"/range", RangeRequest{Q: queries[0], R: 0.5}, &nbs); code != http.StatusOK {
		t.Errorf("/range status %d", code)
	}

	// Insert then delete round trip.
	var ins InsertResponse
	if code := postJSON(t, client, base+"/insert", InsertRequest{P: queries[1]}, &ins); code != http.StatusOK {
		t.Fatalf("/insert status %d", code)
	}
	var del DeleteResponse
	if code := postJSON(t, client, base+"/delete", DeleteRequest{ID: ins.ID}, &del); code != http.StatusOK || !del.Found {
		t.Errorf("/delete status %d found %v", code, del.Found)
	}

	// Health and status.
	for _, path := range []string{"/healthz", "/statusz"} {
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status %d", path, resp.StatusCode)
		}
	}
	var st Status
	resp, err := client.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Shards != 2 || st.Points != 600 {
		t.Errorf("statusz %+v", st)
	}

	// Metrics exposition includes the serving instruments.
	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(prom, []byte("serve:")) {
		t.Errorf("/metrics status %d, body lacks serve instruments:\n%s", resp.StatusCode, prom)
	}

	// Error mapping: wrong method, malformed body, validation failure.
	resp, err = client.Get(base + "/knn")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /knn status %d, want 405", resp.StatusCode)
	}
	resp, err = client.Post(base+"/knn", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck — draining for reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", resp.StatusCode)
	}
	var errResp ErrorResponse
	if code := postJSON(t, client, base+"/knn", KNNRequest{Q: queries[0][:3], K: 3}, &errResp); code != http.StatusBadRequest {
		t.Errorf("dimension mismatch status %d, want 400", code)
	}
	// A finite coordinate whose square overflows (valid JSON) would make
	// every distance +Inf; each vector-taking endpoint must refuse it.
	huge := append([]float64(nil), queries[0]...)
	huge[0] = 1e160
	for _, c := range []struct {
		path string
		req  any
	}{
		{"/knn", KNNRequest{Q: huge, K: 3}},
		{"/range", RangeRequest{Q: huge, R: 0.5}},
		{"/insert", InsertRequest{P: huge}},
	} {
		if code := postJSON(t, client, base+c.path, c.req, &errResp); code != http.StatusBadRequest {
			t.Errorf("%s with a 1e160 coordinate: status %d, want 400", c.path, code)
		}
	}

	// Start twice is an error.
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start succeeded")
	}
}

func TestHTTPReload(t *testing.T) {
	model, queries := testModel(t, 500, 16, 81)
	next, _ := testModel(t, 650, 16, 82)
	path := filepath.Join(t.TempDir(), "next.mmdr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv, err := New(model, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()
	client := newHTTPClient(t)

	var ok OKResponse
	if code := postJSON(t, client, base+"/reload", ReloadRequest{Path: path}, &ok); code != http.StatusOK {
		t.Fatalf("/reload status %d", code)
	}
	if !ok.OK || ok.Generation != 1 {
		t.Errorf("reload response %+v", ok)
	}
	if st := srv.Stats(); st.Points != 650 {
		t.Errorf("post-reload points %d, want 650", st.Points)
	}
	// Queries still work against the swapped-in model.
	var nbs NeighborsResponse
	if code := postJSON(t, client, base+"/knn", KNNRequest{Q: queries[0], K: 3}, &nbs); code != http.StatusOK {
		t.Errorf("post-reload /knn status %d", code)
	}
	// Reloading a missing file is a 400, not a crash.
	var errResp ErrorResponse
	if code := postJSON(t, client, base+"/reload", ReloadRequest{Path: path + ".missing"}, &errResp); code != http.StatusBadRequest {
		t.Errorf("missing reload file status %d, want 400", code)
	}
}

func TestWriteErrorMapping(t *testing.T) {
	cases := []struct {
		err  error
		code int
	}{
		{ErrOverloaded, http.StatusTooManyRequests},
		{ErrClosed, http.StatusServiceUnavailable},
		{fmt.Errorf("wrapped: %w", ErrOverloaded), http.StatusTooManyRequests},
		{fmt.Errorf("serve: vector dimension 3, model wants 16"), http.StatusBadRequest},
	}
	for _, tc := range cases {
		rec := &recorderWriter{header: make(http.Header)}
		writeError(rec, tc.err)
		if rec.code != tc.code {
			t.Errorf("writeError(%v) = %d, want %d", tc.err, rec.code, tc.code)
		}
	}
}

// recorderWriter is a minimal ResponseWriter for exercising writeError
// without a live server.
type recorderWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorderWriter) Header() http.Header         { return r.header }
func (r *recorderWriter) WriteHeader(code int)        { r.code = code }
func (r *recorderWriter) Write(p []byte) (int, error) { return r.body.Write(p) }
