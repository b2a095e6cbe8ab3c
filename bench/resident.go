package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"

	"s2"
	"s2/internal/core"
	"s2/internal/obs"
	"s2/internal/serve"
	"s2/internal/sidecar"
)

// The program is driven only through its public entry points: the s2
// package, the serve handler behind httptest, and sidecar workers on
// loopback TCP.

const workers = 2

// workerSet is a fleet of sidecar workers on 127.0.0.1:0 (loopback, not a
// real link), served from this process.
type workerSet struct {
	servers []*sidecar.Server
	addrs   []string
	done    sync.WaitGroup
}

func startWorkers(n int) (*workerSet, error) {
	w := &workerSet{}
	for i := 0; i < n; i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.stop()
			return nil, fmt.Errorf("worker listen: %w", err)
		}
		srv := sidecar.NewServer(core.NewWorker())
		w.servers = append(w.servers, srv)
		w.addrs = append(w.addrs, lis.Addr().String())
		w.done.Add(1)
		go func() {
			defer w.done.Done()
			srv.Serve(lis) // returns once Shutdown closes the listener
		}()
	}
	return w, nil
}

func (w *workerSet) stop() {
	for _, s := range w.servers {
		s.Shutdown(0)
	}
	w.done.Wait()
}

// deployment is how a verifier is stood up: in-process workers or loopback
// TCP sidecars, and (traced runs only) a metrics registry.
type deployment struct {
	shards   int
	tcp      bool
	keepRIBs bool // for the route count of the traced run
	reg      *obs.Registry
}

// verifier is a constructed s2.Verifier plus what must be torn down with it.
type verifier struct {
	*s2.Verifier
	fleet *workerSet
}

func newVerifier(texts map[string]string, d deployment) (*verifier, error) {
	network, err := s2.LoadConfigs(texts)
	if err != nil {
		return nil, err
	}
	opts := s2.Options{Workers: workers, Shards: d.shards, Seed: 1, KeepRIBs: d.keepRIBs, Metrics: d.reg}
	v := &verifier{}
	if d.tcp {
		if v.fleet, err = startWorkers(workers); err != nil {
			return nil, err
		}
		opts.WorkerAddrs = v.fleet.addrs
	}
	if v.Verifier, err = s2.NewVerifier(network, opts); err != nil {
		if v.fleet != nil {
			v.fleet.stop()
		}
		return nil, err
	}
	return v, nil
}

func (v *verifier) close() {
	v.Close()
	if v.fleet != nil {
		v.fleet.stop()
	}
}

// front is the HTTP API in front of a resident verifier.
type front struct {
	ts *httptest.Server
	hc *http.Client
}

func newFront(v *verifier, reg *obs.Registry) *front {
	ts := httptest.NewServer(serve.New(v.Verifier, serve.Options{Registry: reg}).Handler())
	tr := ts.Client().Transport.(*http.Transport).Clone()
	// Keep every load-generator connection alive between requests.
	tr.MaxIdleConnsPerHost = maxInflight
	return &front{ts: ts, hc: &http.Client{Transport: tr}}
}

func (f *front) close() {
	f.hc.CloseIdleConnections()
	f.ts.Close()
}

// call sends one request and decodes a 200 response into out; any other
// status is an error.
func (f *front) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, f.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// queriesResp is the part of a POST /v1/queries response the checks read.
type queriesResp struct {
	Results []struct {
		Epoch      uint64         `json:"epoch"`
		OK         bool           `json:"ok"`
		Reached    []string       `json:"reached"`
		Violations []s2.Violation `json:"violations"`
	} `json:"results"`
}

func queriesBody(qs []query) []byte {
	wire := make([]map[string]any, len(qs))
	for i, q := range qs {
		wire[i] = q.wire()
	}
	body, err := json.Marshal(map[string]any{"queries": wire})
	if err != nil {
		panic(err) // a map of strings and numbers always marshals
	}
	return body
}

// ask posts a query batch and returns each answer's key and epoch.
func (f *front) ask(body []byte) (keys []string, epochs []uint64, err error) {
	var resp queriesResp
	if err := f.call(http.MethodPost, "/v1/queries", body, &resp); err != nil {
		return nil, nil, err
	}
	for _, r := range resp.Results {
		keys = append(keys, answerKey(r.OK, r.Reached, r.Violations))
		epochs = append(epochs, r.Epoch)
	}
	return keys, epochs, nil
}

// applyDelta stages one device's new text and verifies it, returning the
// delta report.
func (f *front) applyDelta(d delta, tr *tracer, parent, req int) (*s2.DeltaReport, error) {
	body, err := json.Marshal(map[string]any{"set": map[string]string{d.Device: d.Text}})
	if err != nil {
		return nil, err
	}
	sp := tr.start(parent, req, "serve", "POST /v1/configs")
	err = f.call(http.MethodPost, "/v1/configs", body, nil)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var rep s2.DeltaReport
	sp = tr.start(parent, req, "core", "POST /v1/verify "+d.Class)
	err = f.call(http.MethodPost, "/v1/verify", []byte("{}"), &rep)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// regSum adds up every series of one metric family in a registry snapshot.
func regSum(snap map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range snap {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}
