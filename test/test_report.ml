(* Tests for the reporting layer: rendering, pair registry, and the quick
   figure drivers' structural invariants. *)

open Engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let render_to_string f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_table_alignment () =
  let out =
    render_to_string (fun fmt ->
        Report.Render.table fmt ~header:[ "name"; "value" ]
          ~rows:[ [ "alpha"; "1" ]; [ "b"; "22222" ] ]
          ())
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: _ ->
      check_bool "rule under header" true
        (String.length rule >= String.length "name  value");
      check_bool "header first" true
        (String.length header > 0 && String.sub header 0 4 = "name")
  | _ -> Alcotest.fail "too few lines");
  (* all data rows start at aligned columns *)
  check_bool "alpha row present" true
    (List.exists (fun l -> String.length l >= 5 && String.sub l 0 5 = "alpha")
       lines)

let test_series_table_merges_x_values () =
  let s1 = Stats.Series.create ~name:"a" in
  let s2 = Stats.Series.create ~name:"b" in
  Stats.Series.add s1 ~x:1. ~y:10.;
  Stats.Series.add s2 ~x:2. ~y:20.;
  let out =
    render_to_string (fun fmt ->
        Report.Render.series_table fmt ~title:"t" ~x_label:"x"
          ~series:[ s1; s2 ])
  in
  (* both x values appear; missing cells are "-" *)
  check_bool "x=1 row" true
    (List.exists
       (fun l -> String.length l > 0 && l.[0] = '1')
       (String.split_on_char '\n' out));
  check_bool "dash for missing" true
    (String.length out > 0
    && String.index_opt out '-' <> None)

let test_bar_proportions () =
  check_str "full" "####" (Report.Render.bar 10. ~max:10. ~width:4);
  check_str "half" "##" (Report.Render.bar 5. ~max:10. ~width:4);
  check_str "zero" "" (Report.Render.bar 0. ~max:10. ~width:4);
  check_str "degenerate max" "" (Report.Render.bar 5. ~max:0. ~width:4)

let test_timeline_shape () =
  let sim = Sim.create () in
  let spans =
    [
      { Report.Render.label = "first"; start = 0; finish = Time.us 10. };
      { Report.Render.label = "second"; start = Time.us 10.; finish = Time.us 20. };
    ]
  in
  ignore sim;
  let out =
    render_to_string (fun fmt -> Report.Render.timeline fmt ~width:20 spans)
  in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' out)
  in
  check_int "two bars + axis" 3 (List.length lines);
  check_bool "bars drawn" true (String.contains out '#')

let test_pairs_registry () =
  List.iter
    (fun name ->
      let c = Cluster.Net.create ~n:2 () in
      let pair = Report.Pairs.of_name name c ~a:0 ~b:1 in
      check_bool name true (String.length pair.Cluster.Measure.label > 0))
    [ "clic"; "tcp"; "mpi-clic"; "mpi-tcp"; "pvm" ];
  Alcotest.check_raises "unknown stack"
    (Invalid_argument "Pairs.of_name: unknown \"bogus\"") (fun () ->
      let c = Cluster.Net.create ~n:2 () in
      ignore (Report.Pairs.of_name "bogus" c ~a:0 ~b:1))

let test_paper_reference_values () =
  check_bool "latency" true (Report.Paper.zero_byte_latency_us = 36.);
  check_bool "asymptote order" true
    (Report.Paper.clic_asymptote_mtu9000_mbps
   > Report.Paper.clic_asymptote_mtu1500_mbps);
  check_bool "half-bandwidth order" true
    (Report.Paper.half_bandwidth_size_tcp
   > Report.Paper.half_bandwidth_size_clic)

let test_figures_run_rejects_unknown () =
  let known = List.map (fun e -> e.Check.Experiment.id) Check.Experiment.all in
  Alcotest.check_raises "unknown id"
    (Invalid_argument
       (Printf.sprintf "unknown experiment \"nope\" (known: %s)"
          (String.concat ", " known)))
    (fun () -> ignore (Check.Experiment.find "nope"))

let test_fig5_quick_invariants () =
  let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ()) in
  match Report.Figures.fig5 ~quick:true null_fmt with
  | [ clic9000; clic1500; tcp9000; tcp1500 ] ->
      let top s = Stats.Series.max_y s in
      check_bool "clic 9000 highest" true
        (top clic9000 > top tcp9000 && top clic9000 > top tcp1500);
      check_bool "clic beats tcp at same mtu" true
        (top clic1500 > top tcp1500);
      (* every curve is monotone-ish: max at the largest size *)
      List.iter
        (fun s ->
          match List.rev (Stats.Series.points s) with
          | (_, last) :: _ ->
              check_bool "asymptote at large sizes" true
                (last >= 0.8 *. top s)
          | [] -> Alcotest.fail "empty series")
        [ clic9000; clic1500; tcp9000; tcp1500 ]
  | _ -> Alcotest.fail "unexpected fig5 shape"

(* The acceptance contracts of the congestion panels hold on their quick
   runs; the rules themselves live in [Check.Experiment] and are unit
   tested against hand-built results in test_check.ml. *)
let contract_holds contract result =
  Alcotest.(check (list string))
    "no contract violations" []
    (List.map Check.Violation.to_string (contract result))

let null_fmt = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

let test_incast_acceptance () =
  contract_holds Check.Experiment.incast_contract
    (Report.Figures.incast ~quick:true null_fmt)

let test_fabric_acceptance () =
  contract_holds Check.Experiment.fabric_contract
    (Report.Figures.fabric ~quick:true null_fmt)

let test_congestion_acceptance () =
  contract_holds Check.Experiment.congestion_contract
    (Report.Figures.congestion_matrix ~quick:true null_fmt)

let suite =
  [
    ("table alignment", `Quick, test_table_alignment);
    ("series table", `Quick, test_series_table_merges_x_values);
    ("bar proportions", `Quick, test_bar_proportions);
    ("timeline shape", `Quick, test_timeline_shape);
    ("pairs registry", `Quick, test_pairs_registry);
    ("paper reference", `Quick, test_paper_reference_values);
    ("unknown figure id", `Quick, test_figures_run_rejects_unknown);
    ("fig5 invariants", `Slow, test_fig5_quick_invariants);
    ("incast acceptance", `Slow, test_incast_acceptance);
    ("fabric acceptance", `Slow, test_fabric_acceptance);
    ("congestion acceptance", `Slow, test_congestion_acceptance);
  ]
