package dnsclient

import (
	"context"

	"spfail/internal/dnsmsg"
)

// Querier is the unified query path: one transaction, validated response.
// Client implements it over the wire and CachingClient by composition, so
// the SPF engine, the MTA path, and the prober stack layers without
// duplicated Lookup* plumbing. A simulated MTA uses the full stack; the
// probe vantage point drops the cache:
//
//	&Client{...}                  // wire
//	NewCachingClient(client, clk) // + TTL cache
//	NewResolver(cache)            // + typed lookups / RFC 7208 taxonomy
type Querier interface {
	Query(ctx context.Context, name dnsmsg.Name, typ dnsmsg.Type) (*dnsmsg.Message, error)
}
