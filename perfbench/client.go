package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"sommelier/internal/server"
)

// reply is what one request produced, as the client saw it.
type reply struct {
	FirstByte, Latency time.Duration
	Bytes              int64
	Stats              server.QueryStats
	Answer             answer
}

// requestBody is the JSON POST /query body for st. Row-returning
// stream statements ask for the columnar format.
func requestBody(st statement) []byte {
	req := server.QueryRequest{SQL: st.SQL}
	if st.Kind == kindStream {
		req.Format = server.FormatColumnar
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return b
}

// client issues queries against one service and decodes the answers.
type client struct {
	http *http.Client
	url  string
	body bytes.Buffer // reused response body
	tbuf []int64      // reused time column of one columnar batch
}

func newClient(hc *http.Client, base string) *client {
	return &client{http: hc, url: base + "/query"}
}

// do sends one statement and reads its response to the last byte, then
// decodes it: latency ends at the last byte, before the client's own
// decoding. The trace ID, when non-zero, travels in a header so the
// server-side span can be joined to this request.
func (c *client) do(st statement, body []byte, traceID uint64) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != 0 {
		req.Header.Set(traceHeader, strconv.FormatUint(traceID, 10))
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return reply{}, err
	}
	rep := reply{FirstByte: time.Since(t0)}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	rep.Latency = time.Since(t0)
	resp.Body.Close()
	rep.Bytes = int64(c.body.Len())
	if err != nil {
		return rep, err
	}
	if resp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	if st.Kind == kindStream {
		err = c.decodeColumnar(c.body.Bytes(), &rep)
	} else {
		err = decodeJSON(c.body.Bytes(), st.Kind, &rep)
	}
	return rep, err
}

// decodeJSON reads a materialized JSON response into an answer.
func decodeJSON(body []byte, kind string, rep *reply) error {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	rep.Stats = resp.Stats
	a := &rep.Answer
	num := func(row, col int) (float64, error) {
		if row >= len(resp.Rows) || col >= len(resp.Rows[row]) {
			return 0, fmt.Errorf("no value at row %d column %d (%d rows)", row, col, len(resp.Rows))
		}
		f, ok := resp.Rows[row][col].(float64)
		if !ok {
			return 0, fmt.Errorf("value at row %d column %d is %T, not a number", row, col, resp.Rows[row][col])
		}
		return f, nil
	}
	var err error
	switch kind {
	case kindT1:
		var n float64
		n, err = num(0, 1)
		a.Count = int64(n)
	case kindT4:
		a.Avg, err = num(0, 0)
	case kindAgg:
		if a.Avg, err = num(0, 0); err == nil {
			a.Max, err = num(0, 1)
		}
	case kindT2:
		for i, row := range resp.Rows {
			start, ok := row[0].(string)
			if !ok {
				return fmt.Errorf("window_start_ts is %T", row[0])
			}
			w := hwindow{Start: start}
			if w.Max, err = num(i, 1); err != nil {
				return err
			}
			if w.Std, err = num(i, 2); err != nil {
				return err
			}
			a.Windows = append(a.Windows, w)
		}
		sortWindows(a.Windows)
	default:
		return fmt.Errorf("statement kind %q is not served as JSON", kind)
	}
	return err
}

// SOMW columnar wire layout, as documented in internal/server/wire.go.
const (
	somwVersion = 1
	somwFloat64 = 1
	somwTime    = 4
)

// errTruncated reports a columnar body that ends before its terminal
// record.
var errTruncated = errors.New("columnar stream truncated")

// wireReader walks a columnar body; the first error sticks.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b) {
		r.err = errTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *wireReader) byte() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.take(-1)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.take(-1)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// decodeColumnar reads a (sample_time, sample_value) SOMW stream,
// folding every row into the answer's checksum without materializing
// rows. server.DecodeColumnar is the reference decoder; checkReference
// holds this one to it.
func (c *client) decodeColumnar(body []byte, rep *reply) error {
	r := &wireReader{b: body}
	if hdr := r.take(5); r.err != nil || string(hdr[:4]) != "SOMW" || hdr[4] != somwVersion {
		return fmt.Errorf("columnar header %q: want SOMW version %d", hdr, somwVersion)
	}
	if ncols := r.uvarint(); ncols != 2 {
		return fmt.Errorf("columnar stream has %d columns, want 2", ncols)
	}
	for i, want := range []byte{somwTime, somwFloat64} {
		r.take(int(r.uvarint()))
		if k := r.byte(); k != want && r.err == nil {
			return fmt.Errorf("column %d has wire kind %d, want %d", i, k, want)
		}
	}
	a := &rep.Answer
	a.Checksum = checksumSeed
	for r.err == nil {
		switch rec := r.byte(); rec {
		case 'B':
			n := int(r.uvarint())
			c.tbuf = c.tbuf[:0]
			for i := 0; i < n && r.err == nil; i++ {
				c.tbuf = append(c.tbuf, r.varint())
			}
			vals := r.take(8 * n)
			if r.err != nil {
				break
			}
			for i, t := range c.tbuf {
				a.Checksum = rowHash(a.Checksum, t, math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:])))
			}
			a.Rows += n
		case 'F':
			payload := r.take(int(r.uvarint()))
			if r.err != nil {
				break
			}
			var footer struct {
				RowCount int               `json:"row_count"`
				Stats    server.QueryStats `json:"stats"`
			}
			if err := json.Unmarshal(payload, &footer); err != nil {
				return fmt.Errorf("columnar footer: %w", err)
			}
			if footer.RowCount != a.Rows {
				return fmt.Errorf("footer row_count %d, decoded %d rows", footer.RowCount, a.Rows)
			}
			rep.Stats = footer.Stats
			return nil
		case 'E':
			return fmt.Errorf("query failed mid-stream: %s", r.take(int(r.uvarint())))
		default:
			if r.err == nil {
				return fmt.Errorf("unknown columnar record %q", rec)
			}
		}
	}
	return r.err
}

// checkReference decodes st's columnar answer with the server's
// reference decoder and compares it with the expectation, so the fast
// decoder used in the timed window cannot drift from the wire format.
func (c *client) checkReference(st statement, body []byte, want answer) error {
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	res, err := server.DecodeColumnar(resp.Body)
	if err != nil {
		return err
	}
	if res.Err != "" {
		return errors.New(res.Err)
	}
	got := answer{Rows: len(res.Rows), Checksum: checksumSeed}
	for _, row := range res.Rows {
		t, okT := row[0].(int64)
		v, okV := row[1].(float64)
		if !okT || !okV {
			return fmt.Errorf("reference decoder row %v has types %T, %T", row, row[0], row[1])
		}
		got.Checksum = rowHash(got.Checksum, t, v)
	}
	if res.RowCount != got.Rows {
		return fmt.Errorf("reference footer row_count %d, decoded %d rows", res.RowCount, got.Rows)
	}
	return matches(st.Kind, got, want)
}

// fetchStats reads the service's /stats document.
func fetchStats(hc *http.Client, base string) (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := hc.Get(base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// distinct returns the indexes of the first occurrence of each SQL text.
func distinct(stmts []statement) []int {
	seen := map[string]bool{}
	var out []int
	for i, st := range stmts {
		if !seen[st.SQL] {
			seen[st.SQL] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
