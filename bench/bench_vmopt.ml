(** Register-bank specialization + superinstruction fusion benchmark.

    Three questions, answered against the same workloads the rest of the
    harness uses:

    - how much faster specialized programs run — on the VM's closure
      tier, which every verified and specialized program executes on —
      than verified dispatch on the integer-hot micro loop (target:
      >= 1.5x);
    - does the win survive end-to-end on the stateful firewall
      (classifier + time arithmetic around a small bytecode core);
    - does it survive on the BinPAC++ DNS parser (bytes-dominated, so the
      expected win is small but must not be a regression).

    Writes BENCH_vmopt.json. *)

let hot_loop () =
  Bench_util.header "hot loop: checked vs verified dispatch vs closure tier"

let run ?(quick = false) () =
  hot_loop ();
  let iters = if quick then 120_000L else 400_000L in
  let module H = Hilti_vm.Host_api in
  let api_checked = H.compile ~verify:false [ Bench_micro.hot_loop_module () ] in
  let api_verified = H.compile ~specialize:false [ Bench_micro.hot_loop_module () ] in
  let api_spec = H.compile [ Bench_micro.hot_loop_module () ] in
  assert api_spec.H.ctx.Hilti_vm.Vm.program.Hilti_vm.Bytecode.specialized;
  assert (not api_verified.H.ctx.Hilti_vm.Vm.program.Hilti_vm.Bytecode.specialized);
  let spin api () =
    Hilti_vm.Value.as_int (H.call api "Hot::spin" [ Hilti_vm.Value.Int iters ])
  in
  Bench_util.gc_normalize ();
  let r_checked, ns_checked = Bench_util.best_of ~n:5 (spin api_checked) in
  Bench_util.gc_normalize ();
  let r_verified, ns_verified = Bench_util.best_of ~n:5 (spin api_verified) in
  Bench_util.gc_normalize ();
  let r_spec, ns_spec = Bench_util.best_of ~n:5 (spin api_spec) in
  assert (r_checked = r_verified && r_verified = r_spec);
  let sv = Bench_util.ratio ns_verified ns_spec in
  let sc = Bench_util.ratio ns_checked ns_spec in
  Printf.printf "hot loop, %Ld iterations (best of 5):\n" iters;
  Printf.printf "  checked dispatch:     %8.2f ms\n" (Bench_util.ms ns_checked);
  Printf.printf "  verified dispatch:    %8.2f ms\n" (Bench_util.ms ns_verified);
  Printf.printf "  closure tier:         %8.2f ms\n" (Bench_util.ms ns_spec);
  Printf.printf "  specialized/verified speedup: %.2fx (target >= 1.5x)\n" sv;
  Printf.printf "  specialized/checked  speedup: %.2fx\n" sc;

  (* ---- Firewall end-to-end ------------------------------------------------ *)
  Bench_util.header "firewall end-to-end: specialization on vs off";
  let rules_text =
    "10.2.0.0/16 192.168.200.0/24 allow\n192.168.200.2/32 * allow\n10.2.7.0/24 * deny\n"
  in
  let cfg =
    { Hilti_traces.Dns_gen.default with
      transactions = (if quick then 500 else 2000);
      seed = 31 }
  in
  let trace = Hilti_traces.Dns_gen.generate cfg in
  let stream =
    List.filter_map
      (fun (r : Hilti_net.Pcap.record) ->
        match
          Hilti_net.Packet.decode_opt ~ts:r.Hilti_net.Pcap.ts r.Hilti_net.Pcap.data
        with
        | Some pkt ->
            Some (r.Hilti_net.Pcap.ts, Hilti_net.Packet.src pkt, Hilti_net.Packet.dst pkt)
        | None -> None)
      trace.Hilti_traces.Dns_gen.records
  in
  let rules = Hilti_firewall.Fw_rules.parse_rules rules_text in
  let fw_run ~specialize =
    let fw = Hilti_firewall.Fw_hilti.load ~specialize rules in
    Bench_util.gc_normalize ();
    Bench_util.best_of ~n:3 (fun () ->
        List.map
          (fun (ts, src, dst) -> Hilti_firewall.Fw_hilti.match_packet fw ~ts ~src ~dst)
          stream)
  in
  let d_verified, fw_ns_verified = fw_run ~specialize:false in
  let d_spec, fw_ns_spec = fw_run ~specialize:true in
  assert (d_verified = d_spec);
  let fw_speedup = Bench_util.ratio fw_ns_verified fw_ns_spec in
  Printf.printf "%d packets, identical decisions; verified %.2f ms, specialized %.2f ms (%.2fx)\n"
    (List.length stream)
    (Bench_util.ms fw_ns_verified) (Bench_util.ms fw_ns_spec) fw_speedup;

  (* ---- DNS parser end-to-end ---------------------------------------------- *)
  Bench_util.header "BinPAC++ DNS parser: specialization on vs off";
  let payloads =
    List.filter_map
      (fun (r : Hilti_net.Pcap.record) ->
        match
          Hilti_net.Packet.decode_opt ~ts:r.Hilti_net.Pcap.ts r.Hilti_net.Pcap.data
        with
        | Some pkt ->
            let p = Hilti_net.Packet.payload pkt in
            if String.length p > 0 then Some p else None
        | None -> None)
      trace.Hilti_traces.Dns_gen.records
  in
  let dns_run ~specialize =
    let pac = Hilti_analyzers.Dns_pac.load ~specialize () in
    Bench_util.gc_normalize ();
    Bench_util.best_of ~n:3 (fun () ->
        List.fold_left
          (fun acc p ->
            match Hilti_analyzers.Dns_pac.parse pac p with
            | Hilti_analyzers.Dns_pac.Not_dns -> acc
            | Hilti_analyzers.Dns_pac.Request _ | Hilti_analyzers.Dns_pac.Reply _ ->
                acc + 1)
          0 payloads)
  in
  let n_verified, dns_ns_verified = dns_run ~specialize:false in
  let n_spec, dns_ns_spec = dns_run ~specialize:true in
  assert (n_verified = n_spec);
  let dns_speedup = Bench_util.ratio dns_ns_verified dns_ns_spec in
  Printf.printf "%d datagrams, %d parsed in both modes; verified %.2f ms, specialized %.2f ms (%.2fx)\n"
    (List.length payloads) n_spec
    (Bench_util.ms dns_ns_verified) (Bench_util.ms dns_ns_spec) dns_speedup;

  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"vm_specialization\",\n\
      \  \"iters\": %Ld,\n\
      \  \"checked_ms\": %.3f,\n\
      \  \"verified_ms\": %.3f,\n\
      \  \"specialized_ms\": %.3f,\n\
      \  \"speedup_spec_over_verified\": %.3f,\n\
      \  \"speedup_spec_over_checked\": %.3f,\n\
      \  \"firewall_packets\": %d,\n\
      \  \"firewall_verified_ms\": %.3f,\n\
      \  \"firewall_specialized_ms\": %.3f,\n\
      \  \"firewall_speedup\": %.3f,\n\
      \  \"dns_datagrams\": %d,\n\
      \  \"dns_verified_ms\": %.3f,\n\
      \  \"dns_specialized_ms\": %.3f,\n\
      \  \"dns_speedup\": %.3f\n\
       }\n"
      iters (Bench_util.ms ns_checked) (Bench_util.ms ns_verified)
      (Bench_util.ms ns_spec) sv sc (List.length stream)
      (Bench_util.ms fw_ns_verified) (Bench_util.ms fw_ns_spec) fw_speedup
      (List.length payloads) (Bench_util.ms dns_ns_verified)
      (Bench_util.ms dns_ns_spec) dns_speedup
  in
  Bench_util.write_file_atomic "BENCH_vmopt.json" json;
  print_endline "specialization data written to BENCH_vmopt.json";
  sv
