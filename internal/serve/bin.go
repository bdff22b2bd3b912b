package serve

// Batch ingest: the one loop every ingest wire runs, and the binary
// wire, POST /v1/ingest/bin, in front of it.
//
// The binary body is an SSDB batch (internal/trace/record.go): a
// 12-byte header, then one frame per record whose payload is exactly
// the record's canonical WAL encoding and whose header is exactly the
// WAL's frame header, so an accepted payload is appended to the journal
// verbatim — decode validates, nothing re-encodes. The JSON wires are
// another decode step in front of the same loop. The binary steady-state
// path allocates nothing: the body, the rejection list, and the response
// are pooled, and errors on the hot path are sentinels.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"ssdfail/internal/trace"
)

// The SSDB batch and WAL record codecs and the JSON wire record live in
// internal/trace. These forwards keep the names bench/ calls; bench/ is
// their only caller.
type IngestRecord = trace.IngestRecord

const (
	BinHeaderSize = trace.BinHeaderSize
	BinRecordSize = trace.BinRecordSize
	BinFrameSize  = trace.BinFrameSize
)

var (
	AppendBinHeader = trace.AppendBinHeader
	AppendBinRecord = trace.AppendBinRecord
	ParseBinHeader  = trace.ParseBinHeader
	DecodeWALRecord = trace.DecodeWALRecord
	WireRecord      = trace.WireRecord
)

// binState is the pooled per-request scratch for batch ingest: the body
// buffer, the capped rejection list, the response bytes, and each
// wire's decode step. Ownership rule: a binState (and every slice it
// holds) belongs to exactly one request between Get and Put; nothing
// that escapes the handler — store records, WAL buffers, response
// writers — may retain a reference into it.
type binState struct {
	body []byte
	resp []byte
	errs []batchError
	bin  binFrames
	json jsonRecords
}

// binResult is what processing one batch produced. topErr is the
// top-level "error" field for non-2xx shapes; empty on 202/422.
type binResult struct {
	accepted int
	rejected int
	dropped  int
	code     int
	topErr   string
}

// acquireBinState checks a scratch state out of the pool. Callers own
// it until the paired releaseBinState; nothing reachable from it may
// outlive that window.
func (s *Server) acquireBinState() *binState {
	return s.binStates.Get().(*binState)
}

// releaseBinState empties a scratch state's per-request parts and
// returns it to the pool.
func (s *Server) releaseBinState(st *binState) {
	st.errs = st.errs[:0]
	st.json.recs = nil
	s.binStates.Put(st)
}

// runBinBatch is the zero-alloc core shared by the HTTP handler and the
// alloc benchmarks: process one binary batch into st and render the
// reply into st.resp.
func (s *Server) runBinBatch(ctx context.Context, body []byte, st *binState) binResult {
	res := s.processBinBatch(ctx, body, st)
	st.renderBinReply(res)
	return res
}

func (s *Server) handleIngestBin(w http.ResponseWriter, r *http.Request) {
	if !s.acquire(w, "ingest_bin", s.ingestSem) {
		return
	}
	defer s.releaseIngest()
	st := s.acquireBinState()
	defer s.releaseBinState(st)
	body, code, err := s.readBinBody(r, st)
	if err != nil {
		writeError(w, code, err.Error())
		return
	}
	res := s.runBinBatch(r.Context(), body, st)
	writeBatchReply(w, res.code, st)
}

// writeBatchReply sends a batch reply rendered into st.resp.
func writeBatchReply(w http.ResponseWriter, code int, st *binState) {
	h := w.Header()
	if _, ok := h["Content-Type"]; !ok {
		h.Set("Content-Type", "application/json")
	}
	w.WriteHeader(code)
	//ssdlint:allow droppederr response write failed means the client hung up; the records are already applied
	w.Write(st.resp)
}

// readBinBody reads the request body into the pooled buffer. Bodies
// with a declared length read straight into place without allocating;
// chunked bodies fall back to a capped copy.
func (s *Server) readBinBody(r *http.Request, st *binState) ([]byte, int, error) {
	if r.ContentLength > s.cfg.MaxBodyBytes {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBodyBytes)
	}
	if n := r.ContentLength; n >= 0 {
		if int64(cap(st.body)) < n {
			st.body = make([]byte, n)
		}
		st.body = st.body[:n]
		if _, err := io.ReadFull(r.Body, st.body); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("reading body: %v", err)
		}
		return st.body, 0, nil
	}
	// Unknown length (chunked). Rare; allocation here is fine.
	b, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %v", err)
	}
	if int64(len(b)) > s.cfg.MaxBodyBytes {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBodyBytes)
	}
	st.body = append(st.body[:0], b...)
	return st.body, 0, nil
}

// processBinBatch is the binary wire's front end: it checks the batch
// header and stride, then hands the frames to the shared batch loop.
// Accepted frame payloads are journaled verbatim.
func (s *Server) processBinBatch(ctx context.Context, body []byte, st *binState) binResult {
	count, rest, err := trace.ParseBinHeader(body)
	if err != nil {
		return binResult{code: http.StatusBadRequest, topErr: err.Error()}
	}
	st.bin.rest = rest
	return s.ingestBatch(ctx, count, &st.bin, st)
}

// recordDecoder is one ingest wire's decode step: it turns record i of
// a batch into the drive ID, model, record and canonical WAL payload
// the batch loop applies. A non-nil error rejects the record as
// invalid_record (id names its drive when the wire carries one); an
// error wrapping errCorruptFrame stops the batch instead.
type recordDecoder interface {
	decode(i int) (id uint32, model trace.Model, rec trace.DayRecord, payload []byte, err error)
}

var (
	// errCorruptFrame is a transport-level failure, not a bad record:
	// the rest of the body cannot be trusted.
	errCorruptFrame     = errors.New("corrupt frame")
	errMalformedPayload = errors.New("serve: malformed record payload")
)

// maxBatchErrors caps the per-record errors a batch reply lists.
const maxBatchErrors = 10

// ingestBatch is the one batch loop behind every ingest wire: it walks
// count records through dec into the store or journal. Per-record
// rejections continue; a mid-batch deadline, a WAL failure or a corrupt
// frame stops the batch with exact accounting (accepted + rejected +
// dropped = count), and records already applied stay applied.
func (s *Server) ingestBatch(ctx context.Context, count int, dec recordDecoder, st *binState) binResult {
	res := binResult{code: http.StatusAccepted}
	for i := 0; i < count; i++ {
		// A large batch can outlive the request deadline; stop cleanly
		// with an exact accepted count rather than churn for a client
		// that already gave up.
		if i&127 == 0 && ctx.Err() != nil {
			return res.stop(http.StatusServiceUnavailable, "request deadline exceeded mid-batch", count-i)
		}
		id, model, rec, payload, err := dec.decode(i)
		reason := "invalid_record"
		if err == nil {
			if err = s.commit(id, model, rec, payload); err == nil {
				s.ingested.Inc()
				res.accepted++
				continue
			}
			reason = "store_conflict"
		}
		if errors.Is(err, errCorruptFrame) {
			return res.stop(http.StatusBadRequest, err.Error(), count-i)
		}
		if errors.Is(err, ErrJournal) {
			// The WAL is failing; every further append would too.
			s.ingestRejected.With("wal_error").Inc()
			return res.stop(http.StatusServiceUnavailable, err.Error(), count-i)
		}
		res.rejected++
		s.ingestRejected.With(reason).Inc()
		if len(st.errs) < maxBatchErrors {
			st.errs = append(st.errs, batchError{Index: i, DriveID: id, Error: err.Error()})
		}
	}
	if res.accepted == 0 && count > 0 {
		res.code = http.StatusUnprocessableEntity
	}
	return res
}

// stop ends a batch early with a top-level error and the count of
// records never looked at.
func (r binResult) stop(code int, msg string, dropped int) binResult {
	r.code, r.topErr, r.dropped = code, msg, dropped
	return r
}

// commit applies one validated record: through the journal when the
// server has a WAL, straight into the store otherwise. payload is the
// record's canonical WAL encoding, journaled verbatim; nil has the
// journal encode it.
func (s *Server) commit(id uint32, model trace.Model, rec trace.DayRecord, payload []byte) error {
	switch {
	case s.journal == nil:
		return s.store.Upsert(id, model, rec)
	case payload == nil:
		return s.journal.Upsert(id, model, rec)
	default:
		return s.journal.UpsertPayload(id, model, rec, payload)
	}
}

// binFrames is the binary wire's decode step: it walks the fixed-stride
// frames that follow the batch header.
type binFrames struct{ rest []byte }

func (f *binFrames) decode(int) (uint32, trace.Model, trace.DayRecord, []byte, error) {
	payload, next, err := trace.NextFrame(f.rest, trace.BinRecordSize)
	if err != nil {
		return 0, 0, trace.DayRecord{}, nil, fmt.Errorf("%w: %w", errCorruptFrame, err)
	}
	f.rest = next
	if len(payload) != trace.BinRecordSize || payload[trace.BinRecordSize-1]&^3 != 0 {
		// A short-but-valid frame or non-canonical flag bits would
		// journal bytes that differ from the canonical encoding of the
		// record they decode to; reject so WAL contents stay identical
		// across wire formats.
		return 0, 0, trace.DayRecord{}, nil, errMalformedPayload
	}
	_, model, rec, err := trace.DecodeWALRecord(payload)
	if err == nil {
		err = trace.ValidateIngest(&rec)
	}
	return binary.LittleEndian.Uint32(payload), model, rec, payload, err
}

// renderBinReply builds every batch reply, whatever the wire, into
// st.resp without an encoder, so a steady-state 202 does not allocate.
// Keys come in a fixed order; "dropped" appears only beside a top-level
// "error".
func (st *binState) renderBinReply(res binResult) {
	buf := st.resp[:0]
	buf = append(buf, '{')
	if res.topErr != "" {
		buf = append(buf, `"error":`...)
		buf = appendJSONString(buf, res.topErr)
		buf = append(buf, ',')
	}
	buf = append(buf, `"accepted":`...)
	buf = strconv.AppendInt(buf, int64(res.accepted), 10)
	buf = append(buf, `,"rejected":`...)
	buf = strconv.AppendInt(buf, int64(res.rejected), 10)
	if res.topErr != "" {
		buf = append(buf, `,"dropped":`...)
		buf = strconv.AppendInt(buf, int64(res.dropped), 10)
	}
	buf = append(buf, `,"errors":`...)
	if len(st.errs) == 0 {
		buf = append(buf, `null`...)
	} else {
		buf = append(buf, '[')
		for i := range st.errs {
			if i > 0 {
				buf = append(buf, ',')
			}
			e := &st.errs[i]
			buf = append(buf, `{"index":`...)
			buf = strconv.AppendInt(buf, int64(e.Index), 10)
			buf = append(buf, `,"drive_id":`...)
			buf = strconv.AppendUint(buf, uint64(e.DriveID), 10)
			buf = append(buf, `,"error":`...)
			buf = appendJSONString(buf, e.Error)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	buf = append(buf, '}', '\n')
	st.resp = buf
}

// appendJSONString appends s as a JSON string literal. Unlike
// strconv.AppendQuote (Go escaping, not JSON) it emits only escapes
// JSON accepts.
func appendJSONString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c >= 0x20:
			buf = append(buf, c)
		default:
			const hex = "0123456789abcdef"
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
	}
	return append(buf, '"')
}

// binStatePool builds the server's binState pool.
func binStatePool() sync.Pool {
	return sync.Pool{New: func() any {
		return &binState{errs: make([]batchError, 0, maxBatchErrors)}
	}}
}
