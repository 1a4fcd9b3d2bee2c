(* The experiment registry: one entry per reproduced figure, table or
   extension, in the order of test/golden/scenario_hashes.txt.  Each entry
   renders its experiment and judges the result against its contract;
   everything else (CLI, checker scenarios, benchmark) is derived from
   [all].

   A contract is a pure function of the typed result.  Rows carry their
   regime as variants, so no rule reads a rendered name; the names below
   only label the findings. *)

open Report

type t = {
  id : string;
  descr : string;
  truncated : bool;
  run : quick:bool -> Format.formatter -> Violation.t list;
}

(* [expect id rule ok fmt ...] is [] when [ok] holds, else one finding. *)
let expect id rule ok fmt =
  Printf.ksprintf
    (fun detail ->
      if ok then []
      else [ Violation.make ~pass:("contract:" ^ id) ~rule ~time_ns:0 detail ])
    fmt

let regime_name = function
  | `Tail_drop -> "tail-drop"
  | `Pause -> "pause"
  | `Ecn -> "ecn"

let has_both regimes =
  List.mem `Tail_drop regimes && List.mem `Pause regimes

let incast_contract (rows, gather) =
  let open Figures in
  let v rule ok fmt = expect "incast" rule ok fmt in
  List.concat_map
    (fun r ->
      let name = regime_name r.in_regime in
      v "delivery" (r.in_delivered = r.in_sent) "%s: %d of %d messages lost"
        name (r.in_sent - r.in_delivered) r.in_sent
      @ v "workload" (r.in_sent >= 40) "%s: only %d messages offered" name
          r.in_sent
      @
      match r.in_regime with
      | `Tail_drop ->
          v "collapse" (r.in_ingress_drops > 0)
            "%s: no drops at the bounded uplinks" name
          @ v "collapse" (r.in_egress_drops > 0)
              "%s: no drops at the egress FIFOs" name
          @ v "collapse" (r.in_retx > 0) "%s: no retransmissions" name
      | `Pause ->
          let drops = r.in_ingress_drops + r.in_egress_drops in
          v "pause-lossless" (drops = 0) "%s: PAUSE fabric dropped %d frame(s)"
            name drops
          @ v "pause-engaged" (r.in_pause_tx > 0)
              "%s: switch sent no PAUSE frame" name
          @ v "pause-engaged" (r.in_tx_paused_us > 0.)
              "%s: senders never paused" name
          @ v "pause-engaged" (r.in_peak_buffer > 0)
              "%s: shared buffer never used" name)
    rows
  @ List.concat_map
      (fun (regime, _us, _retx, drops, _ptx, _pus) ->
        match regime with
        | `Tail_drop ->
            v "collapse" (drops > 0) "gather tail-drop: no switch drops"
        | `Pause ->
            v "pause-lossless" (drops = 0)
              "gather pause: PAUSE fabric dropped %d frame(s)" drops)
      gather
  @ v "shape"
      (has_both (List.map (fun r -> r.in_regime) rows)
      && has_both (List.map (fun (regime, _, _, _, _, _) -> regime) gather))
      "missing a tail-drop or pause row"

let fabric_contract (rows, reroute) =
  let open Figures in
  let v rule ok fmt = expect "fabric" rule ok fmt in
  List.concat_map
    (fun r ->
      let name = regime_name r.fb_regime in
      v "delivery" (r.fb_delivered = r.fb_sent) "%s: %d of %d messages lost"
        name (r.fb_sent - r.fb_delivered) r.fb_sent
      @ v "workload" (r.fb_sent >= 40) "%s: only %d messages offered" name
          r.fb_sent
      @
      match r.fb_regime with
      | `Tail_drop ->
          v "collapse" (r.fb_drops > 0)
            "%s: no switch drops — the oversubscribed uplink did not collapse"
            name
          @ v "collapse" (r.fb_retx > 0) "%s: no retransmissions" name
      | `Pause ->
          v "pause-lossless" (r.fb_drops = 0)
            "%s: PAUSE fabric dropped %d frame(s)" name r.fb_drops
          @ v "pause-tree" (r.fb_spine_pause > 0)
              "%s: spine generated no XOFF (no congestion tree)" name
          @ v "pause-tree" (r.fb_tor_pause > 0)
              "%s: ToRs generated no XOFF (tree did not reach the sources)"
              name
          @ v "pause-tree" (r.fb_paused_us > 0.)
              "%s: sender NICs never paused" name
          @ v "pause-tree" (r.fb_peak_buf > 0)
              "%s: shared buffers never used" name)
    rows
  @ v "reroute"
      (reroute.rr_delivered = reroute.rr_sent)
      "reroute: %d of %d messages lost after spine failure"
      (reroute.rr_sent - reroute.rr_delivered)
      reroute.rr_sent
  @ v "reroute" (reroute.rr_spine0_tx > 0)
      "reroute: no traffic used the doomed spine"
  @ v "reroute"
      (reroute.rr_spine1_tx > reroute.rr_spine0_tx)
      "reroute: surviving spine carried %d frames, not more than the dead \
       spine's %d"
      reroute.rr_spine1_tx reroute.rr_spine0_tx
  @ v "shape"
      (has_both (List.map (fun r -> r.fb_regime) rows))
      "missing a tail-drop or pause row"

let scheme_name = function `Go_back_n -> "gbn" | `Sack -> "sack"

let congestion_contract (cells, bursty) =
  let open Figures in
  let v rule ok fmt = expect "congestion" rule ok fmt in
  v "shape" (List.length cells = 12) "%d cells, not 12" (List.length cells)
  @ List.concat_map
      (fun c ->
        let cell =
          Printf.sprintf "%s/%s/%s" (regime_name c.cg_regime) c.cg_topo
            (scheme_name c.cg_scheme)
        in
        v "delivery" (c.cg_delivered = c.cg_sent) "%s: %d of %d messages lost"
          cell (c.cg_sent - c.cg_delivered) c.cg_sent
        @
        match c.cg_regime with
        | `Ecn ->
            v "ecn-lossless" (c.cg_switch_drops = 0)
              "%s: ECN fabric dropped %d frame(s)" cell c.cg_switch_drops
            @ v "ecn-lossless" (c.cg_pause_tx = 0)
                "%s: ECN fabric emitted %d PAUSE frame(s)" cell c.cg_pause_tx
            @ v "ecn-marks" (c.cg_ecn_marks > 0)
                "%s: ECN fabric never CE-marked a frame" cell
            @ v "ecn-marks" (c.cg_ce_echoes > 0)
                "%s: DCTCP senders never saw a CE echo" cell
        | `Pause ->
            v "pause-lossless" (c.cg_switch_drops = 0)
              "%s: PAUSE fabric dropped %d frame(s)" cell c.cg_switch_drops
            @ v "no-marks" (c.cg_ecn_marks = 0) "%s: marked %d frame(s) CE"
                cell c.cg_ecn_marks
        | `Tail_drop ->
            v "no-marks" (c.cg_ecn_marks = 0) "%s: marked %d frame(s) CE" cell
              c.cg_ecn_marks)
      cells
  @ v "collapse"
      (List.exists
         (fun c -> c.cg_regime = `Tail_drop && c.cg_switch_drops > 0)
         cells)
      "no tail-drop cell lost a frame"
  @
  match
    ( List.find_opt (fun r -> r.bu_scheme = `Go_back_n) bursty,
      List.find_opt (fun r -> r.bu_scheme = `Sack) bursty )
  with
  | Some gbn, Some sack ->
      v "sack-saves"
        (sack.bu_retx_bytes < gbn.bu_retx_bytes)
        "bursty: SACK retransmitted %d bytes, not fewer than go-back-N's %d"
        sack.bu_retx_bytes gbn.bu_retx_bytes
      @ v "sack-saves" (sack.bu_sacked > 0)
          "bursty: SACK run never recorded a SACKed segment"
      @ v "sack-saves"
          (sack.bu_retx_bytes_saved > 0)
          "bursty: SACK run saved no retransmit bytes"
      @ v "sack-saves" (gbn.bu_timeouts > 0)
          "bursty: go-back-N never timed out (no burst weather)"
      @ v "sack-saves" (gbn.bu_sacked = 0)
          "bursty: go-back-N recorded %d SACKed segment(s)" gbn.bu_sacked
  | _ -> v "shape" false "bursty: missing a retransmit-scheme row"

let slo_contract (rows, verdict) =
  let open Figures in
  let v rule ok fmt = expect "slo" rule ok fmt in
  let clic = List.filter (fun r -> r.sl_system = `Clic) rows in
  let find cond = List.find_opt (fun r -> r.sl_condition = cond) clic in
  List.concat_map
    (fun r ->
      let name =
        match r.sl_condition with
        | `Healthy -> "healthy"
        | `Fail_slow -> "fail-slow"
        | `Fail_slow_loss -> "fail-slow+loss"
      in
      v "delivery"
        (r.sl_completed = r.sl_requests)
        "clic/%s: %d of %d requests unanswered" name
        (r.sl_requests - r.sl_completed)
        r.sl_requests
      @ v "delivery" (r.sl_stranded = 0)
          "clic/%s: %d request(s) stranded at drain" name r.sl_stranded)
    clic
  @ (match (find `Healthy, find `Fail_slow) with
    | Some h, Some d ->
        v "tail-bleed"
          (d.sl_p999_us > h.sl_p999_us)
          "the fail-slow window left no mark on the p999 tail (%.1f us \
           degraded vs %.1f us healthy)"
          d.sl_p999_us h.sl_p999_us
    | _ -> v "shape" false "missing a clic healthy or fail-slow row")
  @ verdict.Slo.v_violations

(* ------------------------------------------------------------------ *)
(* The registry *)

let entry ?(truncated = false) id descr figure contract =
  { id; descr; truncated;
    run = (fun ~quick fmt -> contract (figure ~quick fmt)) }

(* Experiments whose promise is their numbers alone. *)
let no_contract _ = []

(* A driver without a quick mode. *)
let fixed driver ~quick:_ fmt = driver fmt

let slo_run ~quick fmt =
  let rows = Figures.slo ~quick fmt in
  let verdict, _ = Slo.run_contract ~quick () in
  Format.fprintf fmt "@.%a" Slo.pp_verdict verdict;
  (rows, verdict)

let all =
  [
    entry "fig4" "CLIC bandwidth: MTU x 0/1-copy"
      (fun ~quick -> Figures.fig4 ~quick) no_contract;
    entry "fig5" "CLIC vs TCP/IP bandwidth"
      (fun ~quick -> Figures.fig5 ~quick) no_contract;
    entry "fig6" "CLIC, MPI-CLIC, MPI, PVM bandwidth"
      (fun ~quick -> Figures.fig6 ~quick) no_contract;
    entry "fig7" "1400B packet stage timing" (fixed Figures.fig7) no_contract;
    entry "tab1" "headline scalars"
      (fun ~quick -> Figures.tab1 ~quick) no_contract;
    entry "fig1" "user-to-NIC data path ablation"
      (fun ~quick -> Figures.fig1 ~quick) no_contract;
    entry "sec2" "interrupt coalescing under saturated streams"
      (fixed Figures.sec2) no_contract;
    entry "sec3" "CLIC vs GAMMA vs VIA design points" (fixed Figures.sec3)
      no_contract;
    entry "ext1" "NIC-side fragmentation" (fixed Figures.ext1) no_contract;
    entry "ext2" "channel bonding" (fixed Figures.ext2) no_contract;
    entry "ext3" "64KB broadcast to 8 nodes"
      (fixed (fun fmt -> Figures.ext3 fmt)) no_contract;
    entry "ext4" ~truncated:true
      "latency under competing TCP bulk load (truncated run)"
      (fixed Figures.ext4) no_contract;
    entry "stress" "synthetic workloads, clean and 2% loss"
      (fixed Figures.stress) no_contract;
    entry "chaos" "reliability under fault injection"
      (fun ~quick -> Figures.chaos ~quick) no_contract;
    entry "incast" "N->1 incast collapse, tail-drop vs 802.3x PAUSE"
      (fun ~quick -> Figures.incast ~quick) incast_contract;
    entry "fabric" "cross-rack incast + spine failure on a leaf/spine fabric"
      (fun ~quick -> Figures.fabric ~quick) fabric_contract;
    entry "congestion"
      "congestion-regime matrix + same-seed GBN vs SACK bursty loss"
      (fun ~quick -> Figures.congestion_matrix ~quick) congestion_contract;
    entry "slo" "open-loop SLOs under gray failure + degradation contract"
      slo_run slo_contract;
  ]

let find id =
  match List.find_opt (fun e -> e.id = id) all with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown experiment %S (known: %s)" id
           (String.concat ", " (List.map (fun e -> e.id) all)))
