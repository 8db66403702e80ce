package service

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// metrics is the serving tier's slice of the shared obs registry:
// per-connection and per-session counters layered on the same
// lock-free primitives the cluster hot path uses. With no registry
// configured every metric still exists (unregistered), so the serving
// path never branches on observability.
type metrics struct {
	connsOpen    *obs.Gauge
	connsTotal   *obs.Counter
	inflight     *obs.Gauge
	parked       *obs.Counter
	requests     [3]*obs.Counter // indexed by request kind
	errsTotal    *obs.Counter
	protoErrs    *obs.Counter
	sendErrs     *obs.Counter
	waitTimeouts *obs.Counter
	frontierWait *obs.Histogram
	retries      *obs.Counter
	shed         *obs.Counter
	failovers    *obs.Counter
}

// newMetrics builds the metric set, registering on reg when non-nil.
func newMetrics(reg *obs.Registry, proto string) *metrics {
	if reg == nil {
		m := &metrics{
			connsOpen:    &obs.Gauge{},
			connsTotal:   &obs.Counter{},
			inflight:     &obs.Gauge{},
			parked:       &obs.Counter{},
			errsTotal:    &obs.Counter{},
			protoErrs:    &obs.Counter{},
			sendErrs:     &obs.Counter{},
			waitTimeouts: &obs.Counter{},
			frontierWait: obs.NewHistogram(nil),
			retries:      &obs.Counter{},
			shed:         &obs.Counter{},
			failovers:    &obs.Counter{},
		}
		for i := range m.requests {
			m.requests[i] = &obs.Counter{}
		}
		return m
	}
	pl := obs.L("protocol", proto)
	m := &metrics{
		connsOpen:    reg.Gauge("dsm_svc_connections_open", "client connections currently open", pl),
		connsTotal:   reg.Counter("dsm_svc_connections_total", "client connections accepted", pl),
		inflight:     reg.Gauge("dsm_svc_requests_inflight", "requests currently being served", pl),
		parked:       reg.Counter("dsm_svc_requests_parked_total", "requests that would block, handed off the read loop to a goroutine of their own", pl),
		errsTotal:    reg.Counter("dsm_svc_request_errors_total", "requests answered with a non-OK status", pl),
		protoErrs:    reg.Counter("dsm_svc_protocol_errors_total", "connections dropped for malformed frames", pl),
		sendErrs:     reg.Counter("dsm_svc_send_errors_total", "response writes that failed (dead peer)", pl),
		waitTimeouts: reg.Counter("dsm_svc_frontier_timeouts_total", "frontier waits that exceeded WaitTimeout", pl),
		frontierWait: reg.Histogram("dsm_svc_frontier_wait_ns", "time spent waiting for the applied frontier to dominate a session token", nil, pl),
		retries:      reg.Counter("dsm_svc_retry_total", "retried writes absorbed by the exactly-once window", pl),
		shed:         reg.Counter("dsm_svc_shed_total", "requests fast-rejected by load shedding", pl),
		failovers:    reg.Counter("dsm_svc_failover_total", "reads failed over to a frontier-dominating replica", pl),
	}
	kinds := [3]string{"ping", "read", "write"}
	for i, k := range kinds {
		m.requests[i] = reg.Counter("dsm_svc_requests_total", "requests received", pl, obs.L("kind", k))
	}
	return m
}

// reqKind returns the counter for one request kind.
func (m *metrics) reqKind(k uint8) *obs.Counter {
	if int(k) >= len(m.requests) {
		panic(fmt.Sprintf("service: request kind %d out of range (reqKinds=%d)", k, protocol.ReqWrite+1))
	}
	return m.requests[k]
}
