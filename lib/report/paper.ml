let zero_byte_latency_us = 36.
let clic_asymptote_mtu9000_mbps = 600.
let clic_asymptote_mtu1500_mbps = 450.
let clic_over_tcp_best_case = 2.0
let mpi_clic_over_mpi_tcp_worst_case = 1.5
let half_bandwidth_size_clic = 4096
let half_bandwidth_size_tcp = 16384
