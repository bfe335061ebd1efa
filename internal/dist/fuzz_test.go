package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/client"
)

// FuzzWorkHandlers sends arbitrary bodies to /v1/work/lease and
// /v1/work/complete on a coordinator holding one leased item (lease
// "l1") and one pending item. Every answer must be 200, 204 (leases
// only), 400 or 413, errors must come in the JSON error envelope,
// nothing may panic, and the coordinator's ledger must stay
// consistent. Lease requests carry a short deadline, so the waiting
// path does not stall the fuzzer. An oversized input is its body behind
// client.MaxRequestBytes of JSON whitespace, which keeps the corpus
// small.
func FuzzWorkHandlers(f *testing.F) {
	item, _ := json.Marshal(toWireItem(specN(1)))
	results, _ := json.Marshal(resultsFor(specN(1)))
	completion := `{"lease":"l1","item":` + string(item) + `,`
	for _, seed := range []struct {
		complete, oversized bool
		body                string
	}{
		{false, false, `{"worker":"w"}`},
		{false, false, `{}`},
		{false, false, `{"worker":"w"`},
		{false, true, `{"worker":"w"}`},
		{true, false, completion + `"worker":"w","results":` + string(results) + `}`},
		{true, false, completion + `"results":` + string(results) + `,"next":true}`},
		{true, false, completion + `"error":"boom","next":true}`},
		{true, false, completion + `"results":[]}`},
		{true, false, completion + `"results":` + string(results)},
		{true, true, completion + `"results":` + string(results) + `,"next":true}`},
		{true, false, `[]`},
	} {
		f.Add(seed.complete, seed.oversized, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, complete, oversized bool, body []byte) {
		if oversized {
			body = append(bytes.Repeat([]byte(" "), client.MaxRequestBytes), body...)
		}
		c := NewCoordinator(CoordinatorConfig{})
		defer c.Close()
		leased := startItem(c, specN(1))
		if l := awaitLease(t, c, "w"); l.Lease != "l1" || fromWireItem(l.Item) != specN(1) {
			t.Fatalf("set-up lease = %+v", l)
		}
		pending := startItem(c, specN(2))
		awaitPending(t, c, 1)

		path := "/v1/work/lease"
		if complete {
			path = "/v1/work/complete"
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, req)

		dec := json.NewDecoder(rec.Body)
		switch code := rec.Code; {
		case code == http.StatusBadRequest || code == http.StatusRequestEntityTooLarge:
			var env map[string]string
			if err := dec.Decode(&env); err != nil || env["error"] == "" {
				t.Fatalf("%s %d: body is not the JSON error envelope (%v)", path, code, err)
			}
		case code == http.StatusNoContent && !complete:
		case code == http.StatusOK && complete:
			var ack client.WorkAck
			if err := dec.Decode(&ack); err != nil {
				t.Fatalf("ack does not decode: %v", err)
			}
			if ack.Next != nil && fromWireItem(ack.Next.Item) != specN(2) {
				t.Fatalf("Next = %+v, want the pending item", ack.Next)
			}
		case code == http.StatusOK:
			var l client.WorkLease
			if err := dec.Decode(&l); err != nil || fromWireItem(l.Item) != specN(2) {
				t.Fatalf("lease = %+v (%v), want the pending item", l, err)
			}
		default:
			t.Fatalf("%s answered %d: %s", path, code, rec.Body)
		}
		order, _ := checkLedger(t, c)
		if st := c.Stats(); len(order) != st.Pending || st.Pending+st.Leased+st.Done > 2 || st.Completed > 1 {
			t.Fatalf("stats %+v with pending items %v", st, order)
		}
		// One request cannot exhaust an item's failure budget: each
		// waiter gets a result or, once closed, ErrClosed.
		c.Close()
		for _, ch := range []chan outcome{leased, pending} {
			if out := <-ch; !errors.Is(out.err, ErrClosed) && (out.err != nil || len(out.res) != 1) {
				t.Fatalf("RunItem: %+v", out)
			}
		}
	})
}
