// Package dnsserver implements an authoritative DNS server that runs on any
// netsim.Network (the real Internet or the in-memory fabric). It serves
// static zones, and — central to SPFail — a dynamic test zone that
// synthesizes per-probe SPF policies and logs every inbound query so the
// detector can fingerprint how remote mail servers expand SPF macros.
package dnsserver

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"spfail/internal/dnsmsg"
	"spfail/internal/netsim"
	"spfail/internal/telemetry"
	"spfail/internal/trace"
)

// MaxUDPPayload is the classic 512-byte UDP response limit (RFC 1035
// §4.2.1); larger responses are truncated with TC=1 to force TCP retry.
const MaxUDPPayload = 512

// Handler answers DNS queries. Implementations must be safe for concurrent
// use.
type Handler interface {
	// ServeDNS produces a response for the query. from identifies the
	// client (used for query logging and attribution). A nil return is
	// answered with SERVFAIL.
	ServeDNS(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(q *dnsmsg.Message, from net.Addr) *dnsmsg.Message {
	return f(q, from)
}

// Server serves DNS over UDP and TCP.
type Server struct {
	Net     netsim.Network
	Addr    string // "ip:port", typically ":53"
	Handler Handler
	// Metrics, when non-nil, receives query/error/qtype counters
	// (see docs/telemetry.md). Set before Start.
	Metrics *telemetry.Registry
	// Trace, when non-nil, records per-query events on the span of the
	// probe that owns the querying host (host-routed; see internal/trace).
	// Set before Start.
	Trace *trace.Tracer

	mu  sync.Mutex
	pc  net.PacketConn
	l   net.Listener
	wg  sync.WaitGroup
	run bool
	// unwatch deregisters the Stop hook Start put on its context.
	unwatch func() bool
}

// Start begins serving on both transports. It returns once listeners are
// bound; serving continues until Stop or ctx cancellation.
func (s *Server) Start(ctx context.Context) error {
	pc, err := s.Net.ListenPacket("udp", s.Addr)
	if err != nil {
		return err
	}
	l, err := s.Net.Listen("tcp", s.Addr)
	if err != nil {
		_ = pc.Close()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pc, s.l, s.run = pc, l, true
	s.wg.Add(2)
	go s.serveUDP(pc)
	go s.serveTCP(l)
	if ctx != nil {
		s.unwatch = context.AfterFunc(ctx, s.Stop)
	}
	return nil
}

// Stop closes the listeners and waits for in-flight handlers.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.run {
		s.mu.Unlock()
		return
	}
	s.run = false
	pc, l, unwatch := s.pc, s.l, s.unwatch
	s.unwatch = nil
	s.mu.Unlock()
	if unwatch != nil {
		unwatch()
	}
	_ = pc.Close()
	_ = l.Close()
	s.wg.Wait()
}

func (s *Server) serveUDP(pc net.PacketConn) {
	defer s.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		n, from, err := pc.ReadFrom(buf)
		if err != nil {
			return
		}
		pkt := append([]byte(nil), buf[:n]...)
		s.wg.Add(1)
		go func(pkt []byte, from net.Addr) {
			defer s.wg.Done()
			resp := s.respond(pkt, from)
			if resp == nil {
				return
			}
			out, err := resp.Pack()
			if err != nil {
				return
			}
			if len(out) > MaxUDPPayload {
				// Truncate to header + question and signal TC.
				s.Metrics.Counter("dns.server.truncated").Inc()
				tr := &dnsmsg.Message{Header: resp.Header, Questions: resp.Questions}
				tr.Header.Truncated = true
				if out, err = tr.Pack(); err != nil {
					return
				}
			}
			pc.WriteTo(out, from)
		}(pkt, from)
	}
}

func (s *Server) serveTCP(l net.Listener) {
	defer s.wg.Done()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func(c net.Conn) {
			defer s.wg.Done()
			defer c.Close()
			for {
				pkt, err := ReadTCPMessage(c)
				if err != nil {
					return
				}
				resp := s.respond(pkt, c.RemoteAddr())
				if resp == nil {
					return
				}
				if err := WriteTCPMessage(c, resp); err != nil {
					return
				}
			}
		}(c)
	}
}

// respond decodes, dispatches, and encodes one transaction.
func (s *Server) respond(pkt []byte, from net.Addr) *dnsmsg.Message {
	q, err := dnsmsg.Unpack(pkt)
	if err != nil || q.Header.Response || len(q.Questions) == 0 {
		s.Metrics.Counter("dns.server.decode_errors").Inc()
		return nil
	}
	if q.Header.OpCode != dnsmsg.OpCodeQuery {
		r := q.Reply()
		r.Header.RCode = dnsmsg.RCodeNotImp
		return r
	}
	s.Metrics.Counter("dns.server.queries").Inc()
	s.Metrics.Counter("dns.server.qtype." + q.Questions[0].Type.String()).Inc()
	resp := s.Handler.ServeDNS(q, from)
	if resp == nil {
		resp = q.Reply()
		resp.Header.RCode = dnsmsg.RCodeServFail
	}
	if resp.Header.RCode == dnsmsg.RCodeServFail {
		s.Metrics.Counter("dns.server.servfail").Inc()
	}
	if s.Trace != nil {
		if sp := s.Trace.HostSpan(clientHost(from)); sp != nil {
			sp.Event("dns.server.query",
				trace.String("name", q.Questions[0].Name.String()),
				trace.String("type", q.Questions[0].Type.String()),
				trace.String("rcode", resp.Header.RCode.String()),
			)
		}
	}
	return resp
}

// clientHost strips the port from a client address for host-routed trace
// attribution. Only called when tracing is enabled.
func clientHost(from net.Addr) string {
	host, _, err := net.SplitHostPort(from.String())
	if err != nil {
		return from.String()
	}
	return host
}

// ReadTCPMessage reads one length-prefixed DNS message (RFC 1035 §4.2.2).
func ReadTCPMessage(c net.Conn) ([]byte, error) {
	var lb [2]byte
	if _, err := io.ReadFull(c, lb[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint16(lb[:]))
	if n == 0 {
		return nil, errors.New("dnsserver: zero-length TCP message")
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteTCPMessage writes one length-prefixed DNS message.
func WriteTCPMessage(c net.Conn, m *dnsmsg.Message) error {
	body, err := m.Pack()
	if err != nil {
		return err
	}
	out := make([]byte, 2+len(body))
	binary.BigEndian.PutUint16(out, uint16(len(body)))
	copy(out[2:], body)
	_, err = c.Write(out)
	return err
}

// QueryEvent is one observed query, the raw material of SPFail detection.
type QueryEvent struct {
	Time time.Time
	From string // client "ip:port"
	Name dnsmsg.Name
	Type dnsmsg.Type
}

// Sink receives query events as they arrive.
type Sink interface {
	Observe(ev QueryEvent)
}

// QueryLog is a thread-safe append-only log of observed queries with
// optional fan-out to sinks.
type QueryLog struct {
	mu     sync.Mutex
	events []QueryEvent
	sinks  []Sink
}

// Observe implements Sink so logs can be chained.
func (l *QueryLog) Observe(ev QueryEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	sinks := l.sinks
	l.mu.Unlock()
	for _, s := range sinks {
		s.Observe(ev)
	}
}

// AddSink registers an additional receiver for future events.
func (l *QueryLog) AddSink(s Sink) {
	l.mu.Lock()
	l.sinks = append(l.sinks, s)
	l.mu.Unlock()
}

// Snapshot returns a copy of all events observed so far.
func (l *QueryLog) Snapshot() []QueryEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]QueryEvent(nil), l.events...)
}

// Len returns the number of events observed.
func (l *QueryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Reset discards all recorded events (sinks are kept).
func (l *QueryLog) Reset() {
	l.mu.Lock()
	l.events = nil
	l.mu.Unlock()
}
