package fleet

// MaxReadyzBytes bounds an lcmd /readyz body. The gateway's health
// poller reads at most this many bytes of it, so a longer body does not
// decode and the poller keeps that backend's last good gauges;
// lcmserver's tests hold the body under it with every gauge at its
// largest value.
const MaxReadyzBytes = 4096
