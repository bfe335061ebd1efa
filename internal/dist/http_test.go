package dist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/client"
	"repro/internal/sim"
)

// TestWorkEndpointsRejectOversizedBodies: a lease request or a
// completion past client.MaxRequestBytes is refused with 413 in the
// JSON error envelope.
func TestWorkEndpointsRejectOversizedBodies(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{})
	defer c.Close()
	hs := httptest.NewServer(c.Handler())
	defer hs.Close()

	pad := strings.Repeat("w", client.MaxRequestBytes)
	for path, body := range map[string]string{
		"/v1/work/lease":    `{"worker":"` + pad + `"}`,
		"/v1/work/complete": `{"lease":"l1","worker":"` + pad + `"}`,
	} {
		resp, err := http.Post(hs.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]string
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: 413 body is not the JSON error envelope: %v", path, err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge || env["error"] == "" {
			t.Errorf("%s oversized = %d %v, want 413 with an error message", path, resp.StatusCode, env)
		}
	}
}

// TestLocalServerTimeouts: the cluster's coordinator server bounds the
// wait for request headers, so a client trickling headers cannot hold a
// connection forever, and leaves WriteTimeout unset.
func TestLocalServerTimeouts(t *testing.T) {
	cl, err := StartLocal(1, CoordinatorConfig{}, func(int) *sim.Engine { return sim.NewEngine(sim.EngineConfig{}) })
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.srv.ReadHeaderTimeout <= 0 || cl.srv.IdleTimeout <= 0 || cl.srv.WriteTimeout != 0 {
		t.Errorf("ReadHeaderTimeout=%s IdleTimeout=%s WriteTimeout=%s; want the first two set, WriteTimeout zero",
			cl.srv.ReadHeaderTimeout, cl.srv.IdleTimeout, cl.srv.WriteTimeout)
	}
}
