package server

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is an injectable, manually-advanced clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func mustAdmit(t *testing.T, q *quotaTable, tenant string) {
	t.Helper()
	if ok, _ := q.admit(tenant); !ok {
		t.Fatalf("admit(%s) rejected, want admitted", tenant)
	}
}

func TestQuotaDisabledAdmitsEverything(t *testing.T) {
	q := newQuotaTable(QuotaConfig{}, nil)
	for i := 0; i < 1000; i++ {
		mustAdmit(t, q, "anyone")
	}
	if q.tenants() != 0 {
		t.Errorf("disabled quota grew a bucket table: %d tenants", q.tenants())
	}
}

func TestQuotaBurstThenSteadyRate(t *testing.T) {
	clk := newFakeClock()
	q := newQuotaTable(QuotaConfig{Rate: 10, Burst: 3}, clk.now)

	// A new tenant starts with a full bucket: burst admits.
	for i := 0; i < 3; i++ {
		mustAdmit(t, q, "a")
	}
	ok, retry := q.admit("a")
	if ok {
		t.Fatal("fourth immediate request admitted past the burst")
	}
	// At 10 rps the next token is 100ms away.
	if retry <= 0 || retry > 150*time.Millisecond {
		t.Errorf("retryAfter = %v, want ~100ms", retry)
	}

	// Advance one token's worth: exactly one more admit.
	clk.advance(100 * time.Millisecond)
	mustAdmit(t, q, "a")
	if ok, _ := q.admit("a"); ok {
		t.Error("second admit after a single-token refill")
	}

	// A long idle refills to burst, not beyond.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		mustAdmit(t, q, "a")
	}
	if ok, _ := q.admit("a"); ok {
		t.Error("idle refill exceeded burst capacity")
	}
}

func TestQuotaWeightedFairness(t *testing.T) {
	clk := newFakeClock()
	q := newQuotaTable(QuotaConfig{
		Rate: 10, Burst: 1,
		Weights: map[string]float64{"gold": 3, "bronze": 1},
	}, clk.now)
	// Burn the initial burst so both run at steady rate.
	for _, tenant := range []string{"gold", "bronze"} {
		for {
			if ok, _ := q.admit(tenant); !ok {
				break
			}
		}
	}
	// Over the same simulated window, admissions track weights 3:1.
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		clk.advance(10 * time.Millisecond)
		for _, tenant := range []string{"gold", "bronze"} {
			if ok, _ := q.admit(tenant); ok {
				counts[tenant]++
			}
		}
	}
	if counts["gold"] == 0 || counts["bronze"] == 0 {
		t.Fatalf("starved tenant: %v", counts)
	}
	ratio := float64(counts["gold"]) / float64(counts["bronze"])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("gold:bronze admission ratio = %.2f (%v), want ~3", ratio, counts)
	}
}

func TestQuotaRefund(t *testing.T) {
	clk := newFakeClock()
	q := newQuotaTable(QuotaConfig{Rate: 1, Burst: 1}, clk.now)
	mustAdmit(t, q, "a")
	if ok, _ := q.admit("a"); ok {
		t.Fatal("bucket should be empty")
	}
	q.refund("a")
	mustAdmit(t, q, "a")

	// Refund never overfills past burst.
	q.refund("a")
	q.refund("a")
	mustAdmit(t, q, "a")
	if ok, _ := q.admit("a"); ok {
		t.Error("stacked refunds exceeded burst capacity")
	}
}

func TestQuotaTableBounded(t *testing.T) {
	clk := newFakeClock()
	q := newQuotaTable(QuotaConfig{Rate: 100, MaxTenants: 8}, clk.now)
	for i := 0; i < 100; i++ {
		mustAdmit(t, q, fmt.Sprintf("tenant-%d", i))
		clk.advance(time.Millisecond)
	}
	if n := q.tenants(); n > 8 {
		t.Errorf("bucket table grew to %d tenants, bound is 8", n)
	}
	// Hostile tenant-name churn must not break an honest tenant's
	// admission: even after eviction it re-enters with a fresh bucket.
	mustAdmit(t, q, "tenant-0")
}
