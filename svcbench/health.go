package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
)

// counters is the numeric part of a /healthz body; booleans read as 0/1.
type counters map[string]float64

// parseCounters flattens the top-level numbers and booleans of a JSON
// object.
func parseCounters(raw map[string]json.RawMessage) counters {
	c := counters{}
	for k, v := range raw {
		var x any
		if json.Unmarshal(v, &x) != nil {
			continue
		}
		switch t := x.(type) {
		case float64:
			c[k] = t
		case bool:
			if t {
				c[k] = 1
			} else {
				c[k] = 0
			}
		}
	}
	return c
}

// parseHealth decodes an lcmd /healthz body.
func parseHealth(body []byte) (counters, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("decoding healthz: %w", err)
	}
	return parseCounters(raw), nil
}

// delta returns after minus c for every counter after carries.
func (c counters) delta(after counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - c[k]
	}
	return d
}

// add sums o into c.
func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

// hitFrac is fn_cache_hits over fn_cache_hits+fn_cache_misses.
func (c counters) hitFrac() float64 {
	h, m := c["fn_cache_hits"], c["fn_cache_misses"]
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// gateHealth is an lcmgate /healthz body: gateway counters plus one
// counter set per backend.
type gateHealth struct {
	top      counters
	backends map[string]counters
}

// parseGateHealth decodes an lcmgate /healthz body.
func parseGateHealth(body []byte) (gateHealth, error) {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return gateHealth{}, fmt.Errorf("decoding gateway healthz: %w", err)
	}
	g := gateHealth{top: parseCounters(raw), backends: map[string]counters{}}
	var bk map[string]map[string]json.RawMessage
	if err := json.Unmarshal(raw["backends"], &bk); err != nil {
		return gateHealth{}, fmt.Errorf("decoding gateway backends: %w", err)
	}
	for id, b := range bk {
		g.backends[id] = parseCounters(b)
	}
	return g, nil
}

// delta subtracts g from after, gateway-wide and per backend.
func (g gateHealth) delta(after gateHealth) gateHealth {
	d := gateHealth{top: g.top.delta(after.top), backends: map[string]counters{}}
	for id, b := range after.backends {
		prev := g.backends[id]
		if prev == nil {
			prev = counters{}
		}
		d.backends[id] = prev.delta(b)
	}
	return d
}

// routeSkew is the most-routed backend's count over the mean count: 1
// is perfectly even.
func (g gateHealth) routeSkew() float64 {
	ids := make([]string, 0, len(g.backends))
	for id := range g.backends {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var sum, most float64
	for _, id := range ids {
		r := g.backends[id]["routed"]
		sum += r
		most = max(most, r)
	}
	if sum == 0 {
		return 0
	}
	return most / (sum / float64(len(ids)))
}

// getBody fetches url and returns the body of a 200 answer.
func getBody(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// health fetches one lcmd's /healthz counters.
func health(c *http.Client, base string) (counters, error) {
	b, err := getBody(c, base+"/healthz")
	if err != nil {
		return nil, err
	}
	return parseHealth(b)
}

// healthSum fetches and sums /healthz over several lcmd processes.
func healthSum(c *http.Client, bases []string) (counters, error) {
	sum := counters{}
	for _, b := range bases {
		h, err := health(c, b)
		if err != nil {
			return nil, err
		}
		sum.add(h)
	}
	return sum, nil
}

// gateStatus fetches an lcmgate's /healthz.
func gateStatus(c *http.Client, base string) (gateHealth, error) {
	b, err := getBody(c, base+"/healthz")
	if err != nil {
		return gateHealth{}, err
	}
	return parseGateHealth(b)
}
