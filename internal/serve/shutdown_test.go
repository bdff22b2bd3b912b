package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"ssdfail/internal/trace"
)

// TestShutdownDrainsInflightBatch checks the drain contract: a batch
// ingest that is mid-flight when graceful shutdown begins must run to
// completion with every accepted record WAL-durable, while requests
// arriving after the drain are cleanly refused — recovery never sees
// partial state from either.
func TestShutdownDrainsInflightBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{
		ModelPath:     fixModelPath,
		WALDir:        dir,
		WALSyncEvery:  1,
		SyncSnapshots: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const batchSize = 200
	batch := make([]trace.IngestRecord, batchSize)
	for i := range batch {
		rec := crashRec(i, 0)
		batch[i] = trace.WireRecord(uint32(5000+i), trace.Model(i%trace.NumModels), &rec)
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	handlerStarted := make(chan struct{})
	var once sync.Once
	inner := s.Handler()
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(handlerStarted) })
		inner.ServeHTTP(w, r)
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown

	// Stream the batch body through a pipe so the request is provably
	// in-flight — headers and half the body delivered — before shutdown
	// begins.
	pr, pw := io.Pipe()
	type result struct {
		resp *http.Response
		err  error
	}
	respCh := make(chan result, 1)
	go func() {
		req, rerr := http.NewRequest(http.MethodPost, "http://"+ln.Addr().String()+"/v1/ingest/batch", pr)
		if rerr != nil {
			respCh <- result{err: rerr}
			return
		}
		resp, rerr := http.DefaultClient.Do(req)
		respCh <- result{resp: resp, err: rerr}
	}()
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-handlerStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("batch handler never started")
	}

	// net/http runs the shutdown hooks once Shutdown has closed the
	// listeners, so the hook marks the start of the drain.
	draining := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(draining) })
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- srv.Shutdown(context.Background()) }()
	<-draining

	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close() //nolint:errcheck // signals EOF

	res := <-respCh
	if res.err != nil {
		t.Fatalf("in-flight batch failed during drain: %v", res.err)
	}
	defer res.resp.Body.Close()
	if res.resp.StatusCode != http.StatusAccepted {
		t.Fatalf("in-flight batch status = %d, want %d", res.resp.StatusCode, http.StatusAccepted)
	}
	var summary struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	if err := json.NewDecoder(res.resp.Body).Decode(&summary); err != nil {
		t.Fatal(err)
	}
	if summary.Accepted != batchSize || summary.Rejected != 0 {
		t.Fatalf("drained batch accepted %d / rejected %d, want %d / 0",
			summary.Accepted, summary.Rejected, batchSize)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// After the drain the daemon is gone: a late request is refused
	// outright rather than half-applied.
	late, err := http.Post("http://"+ln.Addr().String()+"/v1/ingest/batch",
		"application/json", bytes.NewReader(body))
	if err == nil {
		late.Body.Close()
		t.Fatalf("request after shutdown succeeded with status %d", late.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("closing durability layer: %v", err)
	}

	// Recover from the WAL: exactly the drained batch, nothing else.
	store2 := NewStore(0, 0)
	j2, err := OpenJournal(store2, JournalOptions{Dir: dir, SyncEvery: 1})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer j2.Close()
	if got := store2.Len(); got != batchSize {
		t.Fatalf("recovered %d drives, want %d", got, batchSize)
	}
	for i := range batch {
		snap, ok := store2.Get(uint32(5000 + i))
		if !ok {
			t.Fatalf("drive %d lost after drain", 5000+i)
		}
		want := crashRec(i, 0)
		if len(snap.Recent) != 1 || snap.Recent[0] != want {
			t.Fatalf("drive %d recovered %+v, want [%+v]", 5000+i, snap.Recent, want)
		}
	}
}
